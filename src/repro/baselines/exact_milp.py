"""Ground-truth optima via MILP (HiGHS through scipy) and brute force.

* ``exact_tap_milp`` — TAP as a set-cover integer program: one binary per
  link, one covering constraint per tree edge.
* ``exact_two_ecss_milp`` — 2-ECSS as a cut-covering integer program solved
  with *lazy separation*: start from degree constraints, repeatedly solve,
  find a violated 2-cut in the chosen subgraph (a connectivity or bridge
  violation) and add its constraint.  Every round adds a constraint the
  previous optimum violates, so the loop terminates; the final solution is a
  true optimum because only valid inequalities were added.
* ``exact_k_ecss_milp`` — the ``k >= 2`` generalization: degree constraints
  start at ``k`` and separation finds any global cut with fewer than ``k``
  chosen edges (components when disconnected, else a Stoer–Wagner minimum
  cut under unit edge weights).  The ground truth the k-ECSS differential
  suite (``tests/test_k_ecss.py``) measures approximation ratios against.
* ``brute_force_tap`` / ``brute_force_two_ecss`` — exhaustive search for
  tiny instances, used to cross-check the MILP encodings in the tests.

These are evaluation-side tools: NP-hardness caps them at small/medium
sizes, which is exactly how the experiments use them (DESIGN.md, E1/E3/E6).
The MILP solvers import numpy and scipy (both optional) on first use, so
the brute-force solvers and every importer of this module work without
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

import networkx as nx

from repro.exceptions import NotTwoEdgeConnectedError, SolverError
from repro.graphs.validation import (
    check_k_edge_connected,
    check_two_edge_connected,
    ensure_weights,
    find_bridges,
    is_two_edge_connected,
)
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np
    from scipy import sparse

__all__ = [
    "exact_tap_milp",
    "exact_two_ecss_milp",
    "exact_k_ecss_milp",
    "brute_force_tap",
    "brute_force_two_ecss",
    "MilpResult",
]


@dataclass
class MilpResult:
    """Exact MILP optimum: weight, chosen edges, separation rounds used."""

    weight: float
    chosen: list
    iterations: int = 1  # separation rounds (2-ECSS only)


def _milp_modules():
    """``(numpy, scipy.sparse)``, imported when a MILP is first built."""
    import numpy
    from scipy import sparse

    return numpy, sparse


def _solve_binary_min(c: np.ndarray, a: sparse.csr_matrix, lb: np.ndarray) -> np.ndarray:
    from scipy.optimize import Bounds, LinearConstraint, milp

    np, _ = _milp_modules()
    constraints = LinearConstraint(a, lb, np.full(len(lb), np.inf))
    res = milp(
        c,
        constraints=constraints,
        integrality=np.ones_like(c),
        bounds=Bounds(0, 1),
    )
    if not res.success:  # pragma: no cover - inputs are pre-validated
        raise SolverError(f"MILP failed: {res.message}")
    return np.round(res.x).astype(int)


def exact_tap_milp(
    tree: RootedTree, links: Iterable[tuple[int, int, float]]
) -> MilpResult:
    """Exact minimum-weight TAP via the set-cover MILP."""
    link_list = list(links)
    if not link_list:
        raise NotTwoEdgeConnectedError("no links")
    rows, cols = [], []
    for j, (u, v, _) in enumerate(link_list):
        for t in tree.path_edges(u, v):
            rows.append(t)
            cols.append(j)
    covered = set(rows)
    for t in tree.tree_edges():
        if t not in covered:
            raise NotTwoEdgeConnectedError(f"tree edge {t} is uncoverable")
    np, sparse = _milp_modules()
    m = len(link_list)
    a = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(tree.n, m)
    )
    # Root row is all-zero; keep only real tree-edge rows.
    keep = [t for t in tree.tree_edges()]
    a = a[keep, :]
    c = np.array([w for _, _, w in link_list], dtype=float)
    x = _solve_binary_min(c, a, np.ones(a.shape[0]))
    chosen = [link_list[j][:2] for j in range(m) if x[j]]
    return MilpResult(weight=float(c @ x), chosen=chosen)


def exact_two_ecss_milp(graph: nx.Graph, max_rounds: int = 200) -> MilpResult:
    """Exact minimum-weight 2-ECSS via cut MILP with lazy separation."""
    ensure_weights(graph)
    check_two_edge_connected(graph)
    np, sparse = _milp_modules()
    nodes = list(graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    edges = [(index[u], index[v], float(d["weight"])) for u, v, d in graph.edges(data=True)]
    n, m = len(nodes), len(edges)
    c = np.array([w for _, _, w in edges])

    # Initial valid inequalities: every vertex has degree >= 2.
    rows, cols = [], []
    for j, (u, v, _) in enumerate(edges):
        rows.extend([u, v])
        cols.extend([j, j])
    a_rows = [sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, m))]
    lbs = [np.full(n, 2.0)]

    for rounds in range(1, max_rounds + 1):
        a = sparse.vstack(a_rows).tocsr()
        lb = np.concatenate(lbs)
        x = _solve_binary_min(c, a, lb)
        sub = nx.Graph()
        sub.add_nodes_from(range(n))
        for j, (u, v, _) in enumerate(edges):
            if x[j]:
                sub.add_edge(u, v)
        violated = _find_violated_cut(sub, n)
        if violated is None:
            chosen = [
                (nodes[edges[j][0]], nodes[edges[j][1]]) for j in range(m) if x[j]
            ]
            return MilpResult(weight=float(c @ x), chosen=chosen, iterations=rounds)
        side = violated
        row = np.zeros(m)
        for j, (u, v, _) in enumerate(edges):
            if (u in side) != (v in side):
                row[j] = 1.0
        a_rows.append(sparse.csr_matrix(row))
        lbs.append(np.array([2.0]))
    raise SolverError(f"cut separation did not converge in {max_rounds} rounds")


def _find_violated_cut(sub: nx.Graph, n: int) -> set[int] | None:
    """A vertex set S with fewer than 2 chosen edges across (S, V-S)."""
    comps = list(nx.connected_components(sub))
    if len(comps) > 1:
        return set(comps[0])
    bridges = find_bridges(sub)
    if bridges:
        u, v = bridges[0]
        sub2 = sub.copy()
        sub2.remove_edge(u, v)
        return set(nx.node_connected_component(sub2, u))
    return None


def exact_k_ecss_milp(
    graph: nx.Graph, k: int, max_rounds: int = 400
) -> MilpResult:
    """Exact minimum-weight k-ECSS via cut MILP with lazy separation.

    The ``k``-generalization of :func:`exact_two_ecss_milp`: degree
    constraints start at ``k``, and each separation round adds the
    constraint of a global cut crossed by fewer than ``k`` chosen edges
    (a connected component when the choice is disconnected, else a
    Stoer–Wagner minimum cut under unit edge weights).  Only valid
    inequalities of the k-ECSS polytope are ever added and every round
    cuts off the previous optimum, so the final solution is a true
    optimum.  Raises the structured feasibility error of
    :func:`~repro.graphs.validation.check_k_edge_connected` — never a
    disconnected "solution" — when the input's connectivity is below
    ``k``, and ``ValueError`` for ``k < 2``.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an int >= 2, got {k!r}")
    ensure_weights(graph)
    check_k_edge_connected(graph, k)
    np, sparse = _milp_modules()
    nodes = list(graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    edges = [
        (index[u], index[v], float(d["weight"]))
        for u, v, d in graph.edges(data=True)
    ]
    n, m = len(nodes), len(edges)
    c = np.array([w for _, _, w in edges])

    # Initial valid inequalities: every vertex has degree >= k.
    rows, cols = [], []
    for j, (u, v, _) in enumerate(edges):
        rows.extend([u, v])
        cols.extend([j, j])
    a_rows = [
        sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, m))
    ]
    lbs = [np.full(n, float(k))]

    for rounds in range(1, max_rounds + 1):
        a = sparse.vstack(a_rows).tocsr()
        lb = np.concatenate(lbs)
        x = _solve_binary_min(c, a, lb)
        sub = nx.Graph()
        sub.add_nodes_from(range(n))
        for j, (u, v, _) in enumerate(edges):
            if x[j]:
                sub.add_edge(u, v, cutw=1)
        side = _find_violated_k_cut(sub, k)
        if side is None:
            chosen = [
                (nodes[edges[j][0]], nodes[edges[j][1]])
                for j in range(m) if x[j]
            ]
            return MilpResult(
                weight=float(c @ x), chosen=chosen, iterations=rounds
            )
        row = np.zeros(m)
        for j, (u, v, _) in enumerate(edges):
            if (u in side) != (v in side):
                row[j] = 1.0
        a_rows.append(sparse.csr_matrix(row))
        lbs.append(np.array([float(k)]))
    raise SolverError(
        f"cut separation did not converge in {max_rounds} rounds"
    )


def _find_violated_k_cut(sub: nx.Graph, k: int) -> set[int] | None:
    """A vertex set S with fewer than ``k`` chosen edges across (S, V-S)."""
    comps = list(nx.connected_components(sub))
    if len(comps) > 1:
        return set(comps[0])
    if sub.number_of_nodes() < 2:
        return None
    cut_value, (side, _) = nx.stoer_wagner(sub, weight="cutw")
    if cut_value < k:
        return set(side)
    return None


def brute_force_tap(
    tree: RootedTree, links: Iterable[tuple[int, int, float]], max_links: int = 18
) -> MilpResult:
    """Exhaustive TAP optimum for tiny instances."""
    link_list = list(links)
    if len(link_list) > max_links:
        raise SolverError(f"brute force capped at {max_links} links")
    need = set(tree.tree_edges())
    covers = [frozenset(tree.path_edges(u, v)) for u, v, _ in link_list]
    best_w, best = float("inf"), None
    for r in range(len(link_list) + 1):
        for subset in combinations(range(len(link_list)), r):
            got = set()
            for j in subset:
                got |= covers[j]
            if got >= need:
                w = sum(link_list[j][2] for j in subset)
                if w < best_w:
                    best_w, best = w, subset
    if best is None:
        raise NotTwoEdgeConnectedError("no feasible augmentation")
    return MilpResult(weight=best_w, chosen=[link_list[j][:2] for j in best])


def brute_force_two_ecss(graph: nx.Graph, max_edges: int = 18) -> MilpResult:
    """Exhaustive 2-ECSS optimum for tiny instances."""
    ensure_weights(graph)
    check_two_edge_connected(graph)
    edges = list(graph.edges(data="weight"))
    if len(edges) > max_edges:
        raise SolverError(f"brute force capped at {max_edges} edges")
    best_w, best = float("inf"), None
    nodes = list(graph.nodes())
    for r in range(len(edges) + 1):
        for subset in combinations(range(len(edges)), r):
            w = sum(edges[j][2] for j in subset)
            if w >= best_w:
                continue
            sub = nx.Graph()
            sub.add_nodes_from(nodes)
            sub.add_edges_from((edges[j][0], edges[j][1]) for j in subset)
            if is_two_edge_connected(sub):
                best_w, best = w, subset
    if best is None:  # pragma: no cover - guarded by the 2ECC check
        raise NotTwoEdgeConnectedError("no feasible 2-ECSS")
    return MilpResult(
        weight=best_w, chosen=[(edges[j][0], edges[j][1]) for j in best]
    )
