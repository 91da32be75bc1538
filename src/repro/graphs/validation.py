"""Input validation: connectivity, 2-edge-connectivity, weights — and the
exact diameter.

2-edge-connectivity is the feasibility condition for both TAP and 2-ECSS
(paper, Section 2): a graph admits a 2-edge-connected spanning subgraph iff it
is itself 2-edge-connected, i.e. connected and bridgeless.  The diameter
``D`` is the other input of the ``O~(D + sqrt(n))`` round model;
:func:`exact_diameter` is the one function that computes it.
"""

from __future__ import annotations

import sys
from typing import Sized

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
    "ensure_weights",
    "find_bridges",
    "is_two_edge_connected",
    "check_two_edge_connected",
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


def ensure_weights(graph: nx.Graph, default: float | None = None) -> nx.Graph:
    """Validate edge weights; optionally fill missing ones with ``default``.

    Raises :class:`GraphFormatError` on self-loops, missing weights (when no
    default is given) and weights that fail :func:`valid_weight`.
    """
    for u, v, data in graph.edges(data=True):
        if u == v:
            raise GraphFormatError(f"self-loop at {u!r}")
        w = data.get("weight")
        if w is None:
            if default is None:
                raise GraphFormatError(f"edge ({u!r}, {v!r}) has no 'weight'")
            data["weight"] = default
            w = default
        if not valid_weight(w):
            raise GraphFormatError(f"edge ({u!r}, {v!r}) has invalid weight {w!r}")
    return graph


def find_bridges(graph: nx.Graph) -> list[tuple]:
    """All bridges of the graph (edges whose removal disconnects it)."""
    return list(nx.bridges(graph))


def is_two_edge_connected(graph: nx.Graph) -> bool:
    """Connected, has at least 2 vertices, and bridgeless."""
    if graph.number_of_nodes() < 2:
        return False
    if not nx.is_connected(graph):
        return False
    return next(nx.bridges(graph), None) is None


def check_two_edge_connected(graph: nx.Graph) -> None:
    """Raise a descriptive error if the graph is not 2-edge-connected."""
    if graph.number_of_nodes() < 2:
        raise GraphFormatError("graph needs at least 2 vertices")
    if not nx.is_connected(graph):
        raise NotConnectedError("input graph is not connected")
    bridge = next(nx.bridges(graph), None)
    if bridge is not None:
        raise NotTwoEdgeConnectedError(
            f"input graph has a bridge {bridge!r}; no 2-ECSS exists"
        )


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
