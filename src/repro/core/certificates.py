"""A-posteriori certificates for the primal-dual algorithm (Lemma 3.1).

The algorithm's approximation guarantee is *checkable on every run*:

* dual feasibility up to ``(1 + eps)``: for every link ``e``,
  ``s(e) = sum of y over covered tree edges <= (1 + eps) w(e)``; dividing
  the duals by ``(1 + eps)`` therefore gives a feasible dual, whose value is
  a lower bound on the optimal TAP value of the *virtual* instance by weak
  LP duality;
* tightness of chosen links: every ``e`` in the cover satisfies
  ``s(e) >= w(e)``;
* bounded coverage: every tree edge with ``y(t) > 0`` is covered at most
  ``c`` times by the final cover ``B``.

Together these give ``w(B) <= c (1 + eps) OPT'`` — the exact chain of
inequalities in Lemma 3.1 — so the functions below both validate runs and
produce certified lower bounds for the experiment reports.

:func:`uncovered_tree_edge` certifies the assembled 2-ECSS itself (Claim
2.1): a spanning tree plus links is 2-edge-connected iff every tree edge
lies on some link's tree path.  It reads the links in the original graph's
ids, not the virtual edges, so it stays independent of the virtual-graph
mapping the checks above run on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.instance import TAPInstance
from repro.exceptions import InvariantViolation
from repro.trees.rooted import RootedTree

__all__ = [
    "dual_slacks",
    "validate_dual_feasibility",
    "validate_tightness",
    "validate_cover",
    "validate_coverage_bound",
    "dual_lower_bound",
    "certified_ratio",
    "uncovered_tree_edge",
]

_TOL = 1e-6


def dual_slacks(inst: TAPInstance, y: Sequence[float]) -> list[float]:
    """``s(e) / w(e)`` for every link (``inf`` for zero-weight links)."""
    cum = inst.ops.ancestor_sums(y)
    out = []
    for e in inst.edges:
        s_e = cum[e.dec] - cum[e.anc]
        out.append(s_e / e.weight if e.weight > 0 else float("inf"))
    return out


def validate_dual_feasibility(
    inst: TAPInstance, y: Sequence[float], eps: float
) -> float:
    """Check ``s(e) <= (1 + eps) w(e)`` for all positive-weight links.

    Returns the maximum ratio ``s(e)/w(e)`` observed.
    """
    worst = 0.0
    for e, ratio in zip(inst.edges, dual_slacks(inst, y)):
        if e.weight <= 0:
            continue
        worst = max(worst, ratio)
        if ratio > (1.0 + eps) * (1.0 + _TOL):
            raise InvariantViolation(
                f"dual constraint of link {e.eid} violated: s(e)/w(e) = "
                f"{ratio:.6f} > 1 + eps = {1 + eps}"
            )
    return worst


def validate_tightness(
    inst: TAPInstance, y: Sequence[float], chosen: Iterable[int]
) -> None:
    """Every chosen positive-weight link must be tight (``s(e) >= w(e)``)."""
    cum = inst.ops.ancestor_sums(y)
    for eid in chosen:
        e = inst.edges[eid]
        if e.weight <= 0:
            continue
        s_e = cum[e.dec] - cum[e.anc]
        if s_e < e.weight * (1.0 - _TOL):
            raise InvariantViolation(
                f"chosen link {eid} is not tight: s(e) = {s_e:.6f} < "
                f"w(e) = {e.weight:.6f}"
            )


def validate_cover(inst: TAPInstance, chosen: Iterable[int]) -> None:
    """The chosen links must cover every tree edge."""
    counts = inst.ops.coverage_counts(inst.edges[e].pair for e in chosen)
    for t in inst.tree.tree_edges():
        if counts[t] <= 0:
            raise InvariantViolation(
                f"tree edge ({t}, {inst.tree.parent[t]}) is not covered by "
                "the returned augmentation"
            )


def validate_coverage_bound(
    inst: TAPInstance, y: Sequence[float], chosen: Iterable[int], c: int
) -> int:
    """Every tree edge with positive dual is covered at most ``c`` times.

    Returns the maximum coverage observed over positive-dual edges.
    """
    counts = inst.ops.coverage_counts(inst.edges[e].pair for e in chosen)
    worst = 0
    for t in inst.tree.tree_edges():
        if y[t] > 0:
            worst = max(worst, counts[t])
            if counts[t] > c:
                raise InvariantViolation(
                    f"edge {t} with y > 0 covered {counts[t]} > {c} times"
                )
    return worst


def dual_lower_bound(y: Sequence[float], eps: float) -> float:
    """``sum(y) / (1 + eps)``: a certified lower bound on OPT of the virtual
    TAP instance (feasible dual value, weak duality)."""
    return sum(y) / (1.0 + eps)


def certified_ratio(weight: float, lower_bound: float) -> float:
    """Upper bound on the approximation ratio achieved by this run."""
    if lower_bound <= 0:
        return float("inf") if weight > 0 else 1.0
    return weight / lower_bound


def uncovered_tree_edge(
    tree: RootedTree, links: Iterable[tuple[int, int]]
) -> tuple[int, int] | None:
    """The first tree edge no link covers, or ``None`` if all are covered.

    Tree edge ``(v, parent(v))`` is a bridge of ``tree ∪ links`` exactly
    when no link's tree path crosses it.  Each link adds +1 at both
    endpoints and -2 at their LCA; ``v``'s subtree sum then counts the
    links whose path crosses ``(v, parent(v))``.  The uncovered edges are
    compared as sorted pairs and the smallest is returned, so both
    backends name the same one.  Pure Python over ``tree``; the numpy
    twin is :func:`repro.fast.certificates.uncovered_tree_edge`.
    """
    delta = [0] * tree.n
    for u, v in links:
        delta[u] += 1
        delta[v] += 1
        delta[tree.lca(u, v)] -= 2
    parent = tree.parent
    # Reverse preorder visits a vertex after all of its descendants.
    for v in reversed(tree.order):
        if parent[v] >= 0:
            delta[parent[v]] += delta[v]
    return min(
        (
            (v, parent[v]) if v < parent[v] else (parent[v], v)
            for v in tree.tree_edges()
            if delta[v] == 0
        ),
        default=None,
    )
