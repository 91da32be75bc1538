"""Input validation: connectivity, 2-edge-connectivity, weights — and the
exact diameter.

2-edge-connectivity is the feasibility condition for both TAP and 2-ECSS
(paper, Section 2): a graph admits a 2-edge-connected spanning subgraph iff it
is itself 2-edge-connected, i.e. connected and bridgeless.  One function
decides it, :func:`first_bridge`: an iterative Tarjan low-link pass over an
edge list on ``0..n-1`` ids, in pure Python so installs with and without
numpy share it.  :func:`check_two_edge_connected_ids` names its verdict in
the caller's labels; :class:`repro.runtime.handle.GraphHandle` and the
``nx.Graph`` helpers below both go through it.  The diameter ``D`` is the
other input of the ``O~(D + sqrt(n))`` round model; :func:`exact_diameter`
is the one function that computes it.
"""

from __future__ import annotations

import sys
from typing import Sequence, Sized

import networkx as nx

from repro.exceptions import (
    GraphFormatError,
    NotConnectedError,
    NotKEdgeConnectedError,
    NotTwoEdgeConnectedError,
)

__all__ = [
    "exact_diameter",
    "valid_weight",
    "edge_defect",
    "ensure_weights",
    "find_bridges",
    "first_bridge",
    "is_two_edge_connected",
    "check_two_edge_connected",
    "check_two_edge_connected_ids",
    "is_k_edge_connected",
    "check_k_edge_connected",
    "normalize_graph",
]


def valid_weight(w: float) -> bool:
    """The one weight rule: ``0 <= w <= sys.float_info.max``.

    NaN, infinities, negatives and ints beyond float range fail it: the
    solvers compute in float64, so a weight must lie in its finite
    non-negative range.  The library (:func:`ensure_weights`,
    :meth:`repro.runtime.handle.GraphHandle.reweight`) and the wire
    (:mod:`repro.serve.protocol`) all apply this rule.  A non-numeric
    ``w`` raises ``TypeError`` from the comparison.
    """
    return 0 <= w <= sys.float_info.max


def edge_defect(u: object, v: object, w: object) -> str | None:
    """Why the input edge ``(u, v)`` of weight ``w`` is malformed, or ``None``.

    The one per-edge input rule, checked in this order: a self-loop, a
    missing weight (``None``), a weight failing :func:`valid_weight` (a
    non-numeric one raises ``TypeError`` from it).
    :func:`ensure_weights` and
    :meth:`repro.runtime.handle.GraphHandle.from_edges` raise its text
    as a :class:`GraphFormatError`.
    """
    if u == v:
        return f"self-loop at {u!r}"
    if w is None:
        return f"edge ({u!r}, {v!r}) has no 'weight'"
    if not valid_weight(w):
        return f"edge ({u!r}, {v!r}) has invalid weight {w!r}"
    return None


def ensure_weights(graph: nx.Graph, default: float | None = None) -> nx.Graph:
    """Validate edge weights; optionally fill missing ones with ``default``.

    Raises :class:`GraphFormatError` with the first :func:`edge_defect`:
    self-loops, missing weights (when no default is given) and weights
    that fail :func:`valid_weight`.
    """
    for u, v, data in graph.edges(data=True):
        if u != v and data.get("weight") is None and default is not None:
            data["weight"] = default
        defect = edge_defect(u, v, data.get("weight"))
        if defect is not None:
            raise GraphFormatError(defect)
    return graph


def find_bridges(graph: nx.Graph) -> list[tuple]:
    """All bridges of the graph (edges whose removal disconnects it).

    ``nx.bridges``, in its order and orientation: the tests' oracle for
    :func:`first_bridge`.
    """
    return list(nx.bridges(graph))


def first_bridge(n: int, edges: Sequence[tuple[int, int]]) -> int | None:
    """The position in ``edges`` of the first bridge, or ``None``.

    ``edges`` holds ``(u, v)`` pairs on the ids ``0..n-1`` (``n >= 1``);
    a pair may repeat (parallel edges are never bridges) or be a
    self-loop.  An iterative Tarjan low-link pass: a depth-first search
    from vertex 0 numbers the vertices in visit order, ``low[v]`` is the
    smallest number reachable from ``v``'s subtree over one non-tree
    edge, and the tree edge into ``v`` is a bridge iff ``low[v]``
    exceeds its parent's number.  The search steps over the *edge* it
    arrived by, not the parent vertex, which is what keeps parallel
    edges from reading as bridges.  O(n + m).

    Raises :class:`~repro.exceptions.NotConnectedError` when the search
    misses a vertex.  Of several bridges, the one earliest in ``edges``
    is returned, whatever the search order.
    """
    # Half-edge h = 2 * position + side leads to head[h]; h ^ 1 is its
    # reverse.
    head: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for pos, (u, v) in enumerate(edges):
        adj[u].append(2 * pos)
        adj[v].append(2 * pos + 1)
        head.append(v)
        head.append(u)
    disc = [0] * n  # visit number, from 1; 0 = unvisited
    low = [0] * n
    back = [-1] * n  # the half-edge from a vertex back to its parent
    disc[0] = low[0] = seen = 1
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        skip = back[v]
        for h in it:
            if h == skip:
                continue
            w = head[h]
            if disc[w]:
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                seen += 1
                disc[w] = low[w] = seen
                back[w] = h ^ 1
                stack.append((w, iter(adj[w])))
                break
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    if seen < n:
        raise NotConnectedError("input graph is not connected")
    bridges = [
        back[v] >> 1 for v in range(1, n) if low[v] > disc[head[back[v]]]
    ]
    return min(bridges, default=None)


def check_two_edge_connected_ids(
    nodes: Sequence, edges: Sequence[tuple[int, int]]
) -> None:
    """Raise unless the graph on ids ``0..len(nodes)-1`` is 2-edge-connected.

    ``nodes[i]`` is id ``i``'s label.  Raises
    :class:`~repro.exceptions.GraphFormatError` below 2 vertices,
    :class:`~repro.exceptions.NotConnectedError` when disconnected and
    :class:`~repro.exceptions.NotTwoEdgeConnectedError` naming the first
    bridge in ``edges`` (:func:`first_bridge`), in labels and in its
    orientation there.
    """
    if len(nodes) < 2:
        raise GraphFormatError("graph needs at least 2 vertices")
    pos = first_bridge(len(nodes), edges)
    if pos is not None:
        u, v = edges[pos]
        raise NotTwoEdgeConnectedError(
            f"input graph has a bridge {(nodes[u], nodes[v])!r}; "
            "no 2-ECSS exists"
        )


def _edge_ids(graph: nx.Graph) -> tuple[list, list[tuple[int, int]]]:
    """The graph's labels and its edges as id pairs, in edge order."""
    if graph.is_directed():
        raise GraphFormatError(
            "2-edge-connectivity is defined here for undirected graphs; "
            f"got a {type(graph).__name__}"
        )
    nodes = list(graph)
    index = {u: i for i, u in enumerate(nodes)}
    return nodes, [(index[u], index[v]) for u, v in graph.edges()]


def is_two_edge_connected(graph: nx.Graph) -> bool:
    """Connected, has at least 2 vertices, and bridgeless.

    The verdict of :func:`first_bridge`; a directed graph raises
    :class:`~repro.exceptions.GraphFormatError`.
    """
    if graph.number_of_nodes() < 2:
        return False
    nodes, edges = _edge_ids(graph)
    try:
        return first_bridge(len(nodes), edges) is None
    except NotConnectedError:
        return False


def check_two_edge_connected(graph: nx.Graph) -> None:
    """Raise a descriptive error if the graph is not 2-edge-connected.

    :func:`check_two_edge_connected_ids` on the graph's edges: the bridge
    it names is the first in ``graph.edges()`` order, which may differ
    from the first one ``nx.bridges`` yields.  A directed graph raises
    :class:`~repro.exceptions.GraphFormatError`.
    """
    check_two_edge_connected_ids(*_edge_ids(graph))


def is_k_edge_connected(graph: nx.Graph, k: int) -> bool:
    """Whether the graph's global edge connectivity is at least ``k``.

    ``k = 1`` is plain connectivity and ``k = 2`` delegates to the
    bridge-based :func:`is_two_edge_connected`; higher ``k`` runs the
    flow-based :func:`networkx.edge_connectivity` (weights are ignored —
    connectivity counts edges).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if graph.number_of_nodes() < 2:
        return False
    if k == 1:
        return nx.is_connected(graph)
    if k == 2:
        return is_two_edge_connected(graph)
    if min((d for _, d in graph.degree()), default=0) < k:
        return False
    if not nx.is_connected(graph):
        return False
    return nx.edge_connectivity(graph) >= k


def check_k_edge_connected(graph: nx.Graph, k: int) -> None:
    """Raise a descriptive error if edge connectivity is below ``k``.

    ``k = 2`` raises exactly what :func:`check_two_edge_connected` raises
    (the feasibility errors existing callers dispatch on); ``k >= 3``
    raises :class:`~repro.exceptions.NotKEdgeConnectedError` carrying the
    measured connectivity.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 2:
        check_two_edge_connected(graph)
        return
    if graph.number_of_nodes() < 2:
        raise GraphFormatError("graph needs at least 2 vertices")
    if not nx.is_connected(graph):
        raise NotConnectedError("input graph is not connected")
    if k == 1:
        return
    connectivity = nx.edge_connectivity(graph)
    if connectivity < k:
        raise NotKEdgeConnectedError(
            f"graph has edge connectivity {connectivity} < {k}; "
            f"no {k}-ECSS exists"
        )


def exact_diameter(n: int, edges: Sized) -> int:
    """The exact diameter of the graph on ``0..n-1`` with these edges.

    ``edges`` is a sized collection of ``(u, v)`` pairs (a handle's edge
    list, an ``nx.Graph.edges()`` view).  With numpy this is the
    bit-parallel all-sources BFS of
    :func:`repro.fast.kernels.bitparallel_diameter`; without it,
    ``nx.diameter``.  Both are exact, so they agree on every graph.
    Raises :class:`~repro.exceptions.NotConnectedError` on a
    disconnected graph.
    """
    from repro.fast import HAVE_NUMPY

    if HAVE_NUMPY:
        from repro.fast.kernels import bitparallel_diameter, csr_adjacency

        return bitparallel_diameter(*csr_adjacency(n, edges))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    if not nx.is_connected(g):
        raise NotConnectedError("graph is not connected")
    return nx.diameter(g)


def normalize_graph(graph: nx.Graph) -> tuple[nx.Graph, list, dict]:
    """Relabel nodes to ``0..n-1`` ints; return (graph, index->node, node->index)."""
    nodes = list(graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    out = nx.Graph()
    out.add_nodes_from(range(len(nodes)))
    for u, v, data in graph.edges(data=True):
        out.add_edge(index[u], index[v], **data)
    return out, nodes, index
