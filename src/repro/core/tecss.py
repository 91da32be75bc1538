"""Weighted 2-ECSS via MST + tree augmentation (Theorem 1.1, Claim 2.1).

``approximate_two_ecss`` computes a minimum spanning tree, roots it, runs the
TAP approximation on the non-tree edges, and returns ``MST + augmentation``.
Since ``w(MST) <= OPT`` and ``OPT`` restricted to non-tree edges is a valid
augmentation, an ``alpha``-approximate TAP gives an ``(alpha+1)``-approximate
2-ECSS.  The ratio therefore depends on the reverse-delete ``variant``:

* ``variant="improved"`` — the c=2 cover bound of Section 4.6 gives a
  ``(2+eps)``-approximate cover on the virtual graph, ``4+eps`` for TAP on
  ``G`` after mapping back (Theorem 4.19), hence **``5 + eps`` for 2-ECSS**
  — the headline guarantee of Theorem 1.1;
* ``variant="basic"`` — the c=4 bound of Section 3.5 gives ``4+eps`` on the
  virtual graph, ``8+eps`` for TAP on ``G``, hence **``9 + eps`` for
  2-ECSS** (the Section 3 warm-up algorithm, kept for the E4 ablation).

``TwoEcssResult.guarantee`` records the variant-matched factor
(``2c + 1 + eps``); do not quote ``5 + eps`` for basic-variant runs.

The returned :class:`~repro.core.result.TwoEcssResult` carries a *certified*
lower bound (``max(w(MST), dual/2)``) so every run reports a checked ratio.
"""

from __future__ import annotations

import networkx as nx

from typing import TYPE_CHECKING, Any, Sequence

from repro.core.certificates import uncovered_tree_edge
from repro.core.result import TapResult, TwoEcssResult
from repro.core.reverse import COVER_BOUND
from repro.exceptions import InvariantViolation, NotATreeError
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:
    from repro.runtime.handle import GraphHandle

__all__ = [
    "approximate_two_ecss",
    "assemble_two_ecss",
    "rooted_mst",
    "stable_kruskal_mst",
]


def stable_kruskal_mst(
    n: int, edges: Sequence[tuple[int, int]], weights: Sequence
) -> tuple[list[tuple[int, int]], Any]:
    """The MST of a ``0..n-1`` edge list and its total weight.

    ``edges[i]`` carries ``weights[i]``.  Returns the tree edges as sorted
    normalized ``(u, v)`` pairs, and their weight objects summed in that
    order (integer weights give an integer total).  Kruskal's algorithm
    visits the edges in a stable sort by weight — the lexicographic
    ``(weight, edge-position)`` order, the same order networkx's Kruskal
    uses over a graph's edge-iteration order — and the accepted edge
    *set* depends only on that order, not on the union-find
    implementation.  The sort compares the weight objects themselves, so
    integer weights beyond float64's exact range still rank exactly.
    This is the one MST builder: :func:`rooted_mst` and the session plans
    (:class:`repro.runtime.plan.SolverPlan`, which the scenario batch
    derives its plans through) call it, on flat arrays instead of an
    ``nx.Graph``; ``tests/test_scenario_batch.py`` holds it to networkx.
    """
    parent = list(range(n))
    size = [1] * n
    chosen: list[tuple[tuple[int, int], int]] = []
    need = n - 1
    for pos in sorted(range(len(edges)), key=weights.__getitem__):
        u, v = edges[pos]
        ru = u
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = v
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        if ru == rv:
            continue
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        chosen.append(((u, v) if u < v else (v, u), pos))
        if len(chosen) == need:
            break
    chosen.sort()
    return [e for e, _ in chosen], sum(weights[pos] for _, pos in chosen)


def rooted_mst(graph: nx.Graph) -> tuple[RootedTree, list[tuple]]:
    """Deterministic MST of a 0..n-1 graph, rooted at 0, plus its edge list."""
    edges = []
    weights = []
    for u, v, w in graph.edges(data="weight", default=1):
        edges.append((u, v))
        weights.append(w)
    n = graph.number_of_nodes()
    mst_edges, _ = stable_kruskal_mst(n, edges, weights)
    return RootedTree.from_edges(n, mst_edges, root=0), mst_edges


def assemble_two_ecss(
    g: "nx.Graph | GraphHandle | None",
    nodes: "Sequence | None",
    mst_edges: list[tuple],
    tap: "TapResult",
    validate: bool = True,
    mst_simulation: Any = None,
    *,
    diameter: int,
    mst_weight: float | None = None,
    n: int | None = None,
    mst_edges_out: list | None = None,
    tree: RootedTree | None = None,
    tree_arrays: Any = None,
) -> TwoEcssResult:
    """Combine MST + TAP augmentation into a validated :class:`TwoEcssResult`.

    Shared by :func:`approximate_two_ecss`, the session runtime
    (:class:`repro.runtime.session.SolverSession`) and the distributed
    pipeline (:func:`repro.dist.pipeline.distributed_two_ecss`): ``g`` is
    the normalized 0..n-1 graph — an ``nx.Graph``, or the
    :class:`~repro.runtime.handle.GraphHandle` itself, whose
    :meth:`~repro.runtime.handle.GraphHandle.has_edge` answers the same
    lookups (the session passes its handle) — ``nodes`` the id -> label
    mapping, and ``tap`` the :class:`~repro.core.result.TapResult` of the
    augmentation.

    ``diameter`` is the result's topology diameter, owned by
    :attr:`repro.runtime.handle.GraphHandle.diameter` (every caller holds
    a handle or a plan).  ``mst_weight`` and ``n`` let a plan-backed
    caller supply cached values; when both are given, ``g`` is read only
    by validation's ``has_edge`` lookups, and with ``validate`` off it may
    be ``None``.  A supplied ``mst_weight`` must equal the in-order sum
    over ``mst_edges`` — the session computes it from the same weight
    objects in the same order, keeping results bit-identical.
    ``mst_edges_out`` optionally supplies the label-mapped MST edge list
    (a plan's ``labeled_mst_edges``), which results over one tree then
    share, read-only by convention.

    ``validate`` certifies the result by Claim 2.1's cover condition
    instead of a graph traversal: every link must be an edge of ``g``,
    and every MST edge must lie on some link's tree path
    (:func:`repro.core.certificates.uncovered_tree_edge`); the first
    uncovered edge is named as the bridge.  ``tree`` is the MST rooted
    as the plan roots it, ``tree_arrays`` its
    :class:`~repro.fast.treearrays.TreeArrays` (numpy certificate); a
    call that passes neither roots ``mst_edges`` itself.  The
    link-membership lookups cost O(links).
    """
    mst_set = set(mst_edges)
    if mst_weight is None:
        mst_weight = sum(g[u][v]["weight"] for u, v in mst_edges)
    if n is None:
        n = g.number_of_nodes()
    aug_edges = [tuple(sorted(link)) for link in tap.links]
    chosen = sorted(mst_set.union(aug_edges))
    weight = mst_weight + tap.weight

    if validate:
        # The input was checked when its handle was built: a gap here is
        # the solver's, so it is named in the caller's labels.  A link
        # that repeats an MST edge adds no parallel edge, so covers nothing.
        links = [e for e in aug_edges if e not in mst_set]
        for u, v in links:
            if not g.has_edge(u, v):
                raise InvariantViolation(
                    f"the returned link ({u}, {v}) (normalized ids) is not "
                    "an edge of the input graph"
                )
        if tree_arrays is not None:
            from repro.fast import certificates as fast_certificates

            bridge = fast_certificates.uncovered_tree_edge(tree_arrays, links)
        else:
            if tree is None:
                try:
                    tree = RootedTree.from_edges(n, mst_edges, root=0)
                except NotATreeError as exc:
                    raise InvariantViolation(
                        f"the returned MST edges are not a spanning tree: "
                        f"{exc}"
                    ) from None
            bridge = uncovered_tree_edge(tree, links)
        if bridge is not None:
            u, v = bridge
            raise InvariantViolation(
                f"the returned subgraph has a bridge ({nodes[u]!r}, "
                f"{nodes[v]!r}); it is not 2-edge-connected"
            )

    # Map back to the caller's node labels.
    edges_out = [(nodes[u], nodes[v]) for u, v in chosen]
    mst_out = (
        [(nodes[u], nodes[v]) for u, v in mst_edges]
        if mst_edges_out is None
        else mst_edges_out
    )

    return TwoEcssResult(
        edges=edges_out,
        weight=weight,
        mst_edges=mst_out,
        mst_weight=mst_weight,
        augmentation=tap,
        diameter=diameter,
        n=n,
        guarantee=COVER_BOUND[tap.variant] * 2 + 1 + tap.eps,
        mst_simulation=mst_simulation,
    )


def approximate_two_ecss(
    graph: nx.Graph,
    eps: float = 0.25,
    variant: str = "improved",
    segmented: bool = True,
    validate: bool = True,
    simulate_mst: bool = False,
    backend: str = "reference",
) -> TwoEcssResult:
    """Approximate minimum-weight 2-ECSS of a weighted graph.

    The guarantee is ``5 + eps`` with ``variant="improved"`` (Theorem 1.1)
    and ``9 + eps`` with ``variant="basic"`` (Section 3; see the module
    docstring for the derivation).  ``backend="fast"`` runs the TAP phases
    on the vectorized kernels of :mod:`repro.fast` with bit-identical
    results; ``"reference"`` (default) keeps the per-edge Python loops.

    The graph may have arbitrary hashable node labels; edges need ``weight``
    attributes.  Raises :class:`~repro.exceptions.NotTwoEdgeConnectedError`
    when no 2-ECSS exists.

    With ``simulate_mst=True`` the MST step runs as a genuine message-level
    Borůvka on the CONGEST simulator (fidelity Level S) instead of the
    centralized solver; the result is provably the same tree (unique MST
    under the lexicographic tie-break), and the measured simulation stats
    land in ``result.mst_simulation``.

    This function is a thin wrapper over a fresh single-use
    :class:`repro.runtime.session.SolverSession`; repeated solves on one
    topology (weight reassignments, eps/variant sweeps, failure
    scenarios) should hold a session and use its ``solve``/``solve_many``
    to reuse the cached :class:`~repro.runtime.plan.SolverPlan` — outputs
    are bit-identical either way.
    """
    from repro.runtime.session import SolverSession

    return SolverSession(graph).solve(
        eps=eps,
        variant=variant,
        segmented=segmented,
        validate=validate,
        backend=backend,
        simulate_mst=simulate_mst,
    )
