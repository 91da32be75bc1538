"""Minimum-weight k-ECSS via iterated augmentation on the TAP machinery.

The paper's 2-ECSS algorithm is the ``k = 2`` member of the k-ECSS family
Dory's companion paper (arXiv:1805.07764) solves by layering augmentation
rounds: 2-ECSS is MST + one tree-augmentation round, and each further round
raises the connectivity of the *current* subgraph by one.  This module
implements round ``j`` (lifting a ``(j-1)``-edge-connected ``H`` to
``j``-edge-connectivity) as a loop of TAP sub-solves on the shared
primal-dual machinery of :mod:`repro.core.tap`:

1. compute the **Gomory–Hu tree** of ``H`` under unit capacities; an edge
   of that tree with value ``< j`` witnesses a deficient cut (its value is
   exactly ``j - 1``, since ``H`` is ``(j-1)``-edge-connected);
2. **contract** the equivalence classes ``lambda_H(u, v) >= j`` — the
   components of the Gomory–Hu tree restricted to edges of value ``>= j``.
   Every deficient cut separates whole classes (a cut of ``j - 1`` edges
   cannot split a class), so the deficient Gomory–Hu edges form a tree on
   the classes in which *every* edge needs covering;
3. run :func:`repro.core.tap.approximate_tap` on that contracted tree with
   the candidate edges of ``G`` not yet in ``H`` (mapped through the
   contraction) as links, and add the chosen links to ``H``;
4. repeat until the Gomory–Hu tree has no deficient edge, i.e. ``H`` is
   ``j``-edge-connected.

**Feasibility.**  If ``G`` is ``k``-edge-connected, every deficient cut of
``H`` has at least ``j <= k`` crossing ``G``-edges but only ``j - 1`` in
``H``, so some candidate crosses it: the TAP instance of step 3 is
coverable, and each iteration adds at least one new edge — the loop
terminates after at most ``m`` iterations.  An uncoverable contracted tree
edge therefore proves ``G`` itself is not ``k``-edge-connected and raises
:class:`~repro.exceptions.NotKEdgeConnectedError`.

**Guarantee.**  For any deficient cut, the edges of an optimal k-ECSS not
in ``H`` cross it (``H`` has ``j - 1 < k`` edges there), so
``OPT_k setminus H`` projects to a feasible cover of the contracted tree:
the optimum of each TAP sub-instance is at most ``w(OPT_k)``, and each
sub-solve is a ``(2c + eps)``-approximation on its instance (Theorem 4.19
applied per iteration).  With ``T`` total iterations across rounds
``3..k`` the subgraph weight is at most

    ``w(MST) + (2c + eps) w(OPT_2) + T (2c + eps) w(OPT_k)
      <= (1 + (T + 1)(2c + eps)) w(OPT_k)``,

recorded per run as ``base.guarantee + T (2c + eps)`` — for ``k = 2``
(``T = 0``) exactly the paper's ``2c + 1 + eps``.  ``T`` depends on the
instance, so the guarantee is *per-run certified*, like the dual
certificates of :mod:`repro.core.certificates`.

Everything outside the TAP sub-solves (Gomory–Hu trees, contraction,
link mapping) is backend-independent, so results are bit-identical across
the ``reference`` and ``fast`` compute backends — the same contract the
2-ECSS path holds.
"""

from __future__ import annotations

import networkx as nx

from typing import Iterable, Sequence

from repro.core.result import KEcssResult, KEcssRound, TwoEcssResult
from repro.core.reverse import COVER_BOUND
from repro.core.tap import approximate_tap
from repro.exceptions import InvariantViolation, NotKEdgeConnectedError
from repro.graphs.validation import check_k_edge_connected, is_k_edge_connected
from repro.trees.rooted import RootedTree

__all__ = [
    "MAX_K",
    "approximate_k_ecss",
    "assemble_k_ecss",
    "assert_k_edge_connected",
    "augment_round",
    "degree_lower_bound",
]

#: Largest ``k`` the solver (and the serve protocol) accepts.  The rounds
#: are provably correct for any ``k``, but each one pays a Gomory–Hu tree
#: per iteration — beyond this the evaluation story (MILP differentials)
#: stops being checkable, so requests above it are rejected up front.
MAX_K = 8


def _unit_capacity_graph(n: int, edge_set: "Iterable[tuple[int, int]]") -> nx.Graph:
    """The subgraph ``H`` as an nx.Graph with explicit unit capacities.

    ``nx.gomory_hu_tree`` treats a *missing* capacity attribute as
    infinite, so every edge carries ``capacity=1`` — connectivity counts
    edges, never weights.  Edges are inserted sorted so the flow
    computations see one canonical graph regardless of set iteration
    order.
    """
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((u, v, {"capacity": 1}) for u, v in sorted(edge_set))
    return h


def _deficient_contraction(
    n: int, edge_set: "Iterable[tuple[int, int]]", j: int
) -> "tuple[list[int], int, list[tuple[int, int]]] | None":
    """Contract the ``lambda >= j`` classes of ``H``; keep deficient cuts.

    Returns ``None`` when ``H`` is already ``j``-edge-connected, else
    ``(comp_of, num_classes, tree_edges)``: the node -> class map and the
    contracted Gomory–Hu tree, in which every edge is a deficient cut.
    Classes are numbered by their smallest member, so the contraction —
    and everything downstream of it — is deterministic.
    """
    ght = nx.gomory_hu_tree(_unit_capacity_graph(n, edge_set))
    deficient = [
        (u, v) for u, v, val in ght.edges(data="weight") if val < j
    ]
    if not deficient:
        return None
    keep = nx.Graph()
    keep.add_nodes_from(range(n))
    keep.add_edges_from(
        (u, v) for u, v, val in ght.edges(data="weight") if val >= j
    )
    comp_of = [0] * n
    for cid, comp in enumerate(sorted(nx.connected_components(keep), key=min)):
        for node in comp:
            comp_of[node] = cid
    num_classes = 1 + max(comp_of)
    # Contracting connected subtrees of a tree yields a tree: exactly the
    # deficient edges survive, one per class boundary.
    tree_edges = sorted(
        tuple(sorted((comp_of[u], comp_of[v]))) for u, v in deficient
    )
    return comp_of, num_classes, tree_edges


def _check_coverable(
    tree: RootedTree,
    links: "list[tuple[int, int, float]]",
    j: int,
    k: int,
) -> None:
    """Every contracted tree edge must be crossable by some candidate.

    An uncoverable edge is a cut of ``G`` with fewer than ``j <= k`` edges
    — proof that no k-ECSS exists (see module docstring), reported as the
    structured feasibility error rather than a solver failure deep inside
    the TAP machinery.
    """
    needed = set(tree.tree_edges())
    for u, v, _ in links:
        needed.difference_update(tree.path_edges(u, v))
        if not needed:
            return
    raise NotKEdgeConnectedError(
        f"a cut of the input graph has fewer than {j} edges; "
        f"no {k}-ECSS exists"
    )


def augment_round(
    n: int,
    chosen: set,
    candidates: "Iterable[tuple[int, int, float]]",
    j: int,
    k: int,
    eps: float = 0.25,
    variant: str = "improved",
    segmented: bool = True,
    validate: bool = True,
    backend: str = "reference",
) -> dict:
    """Raise ``chosen`` (a ``(j-1)``-edge-connected edge set over nodes
    ``0..n-1``) to ``j``-edge-connectivity; mutates ``chosen`` in place.

    ``candidates`` lists every edge of ``G`` as sorted ``(u, v, w)``
    triples in a deterministic order (the graph's edge-iteration order);
    edges already in ``chosen`` are skipped.  Returns a round record
    ``{"j", "iterations", "edges", "weight"}`` with the added normalized
    edges sorted — the shape :func:`assemble_k_ecss` and the plan-level
    round memo (:meth:`repro.runtime.plan.SolverPlan.k_rounds`) share.
    """
    added: list[tuple[int, int]] = []
    weight = 0.0
    iterations = 0
    while True:
        contraction = _deficient_contraction(n, chosen, j)
        if contraction is None:
            break
        comp_of, num_classes, tree_edges = contraction
        tree = RootedTree.from_edges(num_classes, tree_edges, root=0)
        links: list[tuple[int, int, float]] = []
        origins: list[tuple[int, int]] = []
        for u, v, w in candidates:
            if (u, v) in chosen:
                continue
            cu, cv = comp_of[u], comp_of[v]
            if cu != cv:
                links.append((cu, cv, w))
                origins.append((u, v))
        _check_coverable(tree, links, j, k)
        tap = approximate_tap(
            tree, links, eps=eps, variant=variant, segmented=segmented,
            validate=validate, origins=origins, backend=backend,
        )
        iterations += 1
        new_edges = sorted(set(tap.links) - chosen)
        chosen.update(new_edges)
        added.extend(new_edges)
        weight += tap.weight
    return {
        "j": j,
        "iterations": iterations,
        "edges": sorted(added),
        "weight": weight,
    }


def degree_lower_bound(
    n: int, weighted_edges: "Iterable[tuple[int, int, float]]", k: int
) -> float:
    """``(1/2) sum_v (k cheapest incident weights at v)``: a k-ECSS bound.

    Every k-ECSS has minimum degree ``k`` and each edge is counted at its
    two endpoints, so half the sum of each vertex's ``k`` cheapest
    incident edge weights lower-bounds ``OPT(k-ECSS)``.  Vertices with
    fewer than ``k`` incident edges contribute what they have (the bound
    stays valid; such inputs are infeasible anyway).
    """
    incident: list[list[float]] = [[] for _ in range(n)]
    for u, v, w in weighted_edges:
        w = float(w)
        incident[u].append(w)
        incident[v].append(w)
    total = 0.0
    for weights in incident:
        weights.sort()
        total += sum(weights[:k])
    return total / 2.0


def assemble_k_ecss(
    g: nx.Graph | None,
    nodes: "Sequence | None",
    base: TwoEcssResult,
    base_edges: set,
    rounds: "Iterable[dict]",
    k: int,
    validate: bool = True,
    *,
    diameter: int,
    n: int | None = None,
    degree_bound: float = 0.0,
) -> KEcssResult:
    """Combine the 2-ECSS base and the augmentation rounds into a result.

    ``base_edges`` is the base subgraph as *normalized* sorted pairs (the
    MST plus the round-2 TAP links), ``rounds`` the records of
    :func:`augment_round` for ``j = 3..k`` in order.  ``g`` is only
    touched when ``validate`` is set (the final min-cut certificate), so
    plan-backed callers can pass ``None`` otherwise — mirroring
    :func:`repro.core.tecss.assemble_two_ecss`, which also explains the
    required ``diameter``.
    """
    chosen = set(base_edges)
    round_objs: list[KEcssRound] = []
    extra_weight = 0.0
    iterations = 0
    for record in rounds:
        chosen.update(record["edges"])
        extra_weight += record["weight"]
        iterations += record["iterations"]
        round_objs.append(KEcssRound(
            j=record["j"],
            iterations=record["iterations"],
            edges=[(nodes[u], nodes[v]) for u, v in record["edges"]],
            weight=record["weight"],
        ))
    chosen_sorted = sorted(chosen)
    weight = base.weight + extra_weight

    if validate:
        sub = g.edge_subgraph(chosen_sorted).copy()
        sub.add_nodes_from(g.nodes())
        check_k_edge_connected(sub, k)

    if n is None:
        n = g.number_of_nodes()

    tap_factor = COVER_BOUND[base.augmentation.variant] * 2 \
        + base.augmentation.eps
    return KEcssResult(
        k=k,
        edges=[(nodes[u], nodes[v]) for u, v in chosen_sorted],
        weight=weight,
        base=base,
        rounds=round_objs,
        diameter=diameter,
        n=n,
        guarantee=base.guarantee + iterations * tap_factor,
        degree_lower_bound=degree_bound,
    )


def approximate_k_ecss(
    graph: nx.Graph,
    k: int,
    eps: float = 0.25,
    variant: str = "improved",
    segmented: bool = True,
    validate: bool = True,
    backend: str = "reference",
) -> "TwoEcssResult | KEcssResult":
    """Approximate minimum-weight k-edge-connected spanning subgraph.

    ``k = 2`` returns exactly what
    :func:`repro.core.tecss.approximate_two_ecss` returns (a
    :class:`~repro.core.result.TwoEcssResult`, bit-identical field by
    field); ``k >= 3`` returns a :class:`~repro.core.result.KEcssResult`
    whose rounds each lift connectivity by one (see module docstring).
    Raises :class:`~repro.exceptions.NotKEdgeConnectedError` when the
    input's edge connectivity is below ``k`` (``k = 2`` keeps the existing
    :class:`~repro.exceptions.NotTwoEdgeConnectedError`), and
    ``ValueError`` for ``k`` outside ``2..MAX_K``.

    Like the 2-ECSS one-shot, this is a thin wrapper over a fresh
    single-use :class:`repro.runtime.session.SolverSession`; repeated
    solves on one topology should hold a session and pass ``k`` to its
    ``solve``/``solve_many``, which reuses the cached plan artifacts *and*
    memoizes the augmentation rounds per ``(k, eps, variant, ...)``.
    """
    from repro.runtime.session import SolverSession

    return SolverSession(graph).solve(
        eps=eps,
        variant=variant,
        segmented=segmented,
        validate=validate,
        backend=backend,
        k=k,
    )


def assert_k_edge_connected(
    graph: nx.Graph, subgraph: "nx.Graph | Iterable", k: int
) -> None:
    """Certificate: ``subgraph`` is a spanning k-edge-connected subgraph.

    The reusable checker behind the k-ECSS test wall.  ``subgraph`` may be
    an ``nx.Graph`` or a bare edge iterable; the check verifies that

    * every edge of the subgraph is an edge of ``graph``,
    * the subgraph spans every node of ``graph``, and
    * its global min cut is at least ``k``
      (:func:`repro.graphs.validation.is_k_edge_connected`),

    raising :class:`~repro.exceptions.InvariantViolation` with the failing
    condition otherwise.  Deliberately independent of the solver: it never
    trusts solver-side bookkeeping, only the subgraph itself.
    """
    if isinstance(subgraph, nx.Graph):
        sub_edges = list(subgraph.edges())
    else:
        sub_edges = list(subgraph)
    sub = nx.Graph()
    sub.add_nodes_from(graph.nodes())
    for u, v in sub_edges:
        if not graph.has_edge(u, v):
            raise InvariantViolation(
                f"subgraph edge ({u!r}, {v!r}) is not an edge of the graph"
            )
        sub.add_edge(u, v)
    if isinstance(subgraph, nx.Graph):
        stray = set(subgraph.nodes()) - set(graph.nodes())
        if stray:
            raise InvariantViolation(
                f"subgraph has node(s) not in the graph: {sorted(map(repr, stray))}"
            )
    if not is_k_edge_connected(sub, k):
        raise InvariantViolation(
            f"subgraph is not {k}-edge-connected "
            f"(edge connectivity {_connectivity_of(sub)})"
        )


def _connectivity_of(sub: nx.Graph) -> int:
    """The measured connectivity for the certificate's error message."""
    if sub.number_of_nodes() < 2 or not nx.is_connected(sub):
        return 0
    return nx.edge_connectivity(sub)
