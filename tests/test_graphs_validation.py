"""Error-path coverage for ``repro.graphs.validation``.

The serving layer funnels untrusted payloads through these checks (via
:meth:`repro.runtime.handle.GraphHandle.from_edges`), so every rejection
branch — disconnected inputs, bridges, self-loops, missing/invalid
weights, labels outside the node list, duplicate pairs — needs explicit
coverage, plus the duplicate-edge rejection that the wire protocol adds
on top (``nx.Graph`` silently collapses duplicates), and the graph types
``GraphHandle.from_graph`` refuses.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.tecss import approximate_two_ecss
from repro.exceptions import (
    GraphFormatError,
    NotConnectedError,
    NotTwoEdgeConnectedError,
)
from repro.graphs.validation import (
    check_two_edge_connected,
    ensure_weights,
    find_bridges,
    is_two_edge_connected,
    normalize_graph,
)
from repro.runtime.handle import GraphHandle


def _weighted(edges) -> nx.Graph:
    g = nx.Graph()
    g.add_weighted_edges_from(edges)
    return g


class TestEnsureWeights:
    def test_missing_weight_without_default(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        with pytest.raises(GraphFormatError, match="no 'weight'"):
            ensure_weights(g)

    def test_missing_weight_filled_by_default(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        ensure_weights(g, default=2.5)
        assert g[0][1]["weight"] == 2.5

    @pytest.mark.parametrize(
        "bad", [
            -1.0, float("nan"), float("inf"), None,
            pytest.param(10 ** 400, id="int-beyond-float-range"),
        ]
    )
    def test_invalid_weights(self, bad):
        g = nx.Graph()
        g.add_edge(0, 1, weight=bad)
        if bad is None:
            with pytest.raises(GraphFormatError, match="no 'weight'"):
                ensure_weights(g)
        else:
            with pytest.raises(GraphFormatError, match="invalid weight"):
                ensure_weights(g)

    def test_self_loop(self):
        g = _weighted([(0, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(GraphFormatError, match="self-loop"):
            ensure_weights(g)


class TestFeasibility:
    def test_disconnected_input(self):
        g = _weighted([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
                       (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0)])
        with pytest.raises(NotConnectedError):
            check_two_edge_connected(g)
        assert not is_two_edge_connected(g)

    def test_bridges_only_graph(self):
        # A path: every edge is a bridge; the error names one.
        g = _weighted([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert len(find_bridges(g)) == 3
        with pytest.raises(NotTwoEdgeConnectedError, match="bridge"):
            check_two_edge_connected(g)
        assert not is_two_edge_connected(g)

    def test_single_bridge_in_otherwise_2ec_graph(self):
        # Two triangles joined by one bridge edge.
        g = _weighted([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
                       (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0),
                       (2, 3, 1.0)])
        assert find_bridges(g) == [(2, 3)]
        with pytest.raises(NotTwoEdgeConnectedError, match=r"\(2, 3\)"):
            check_two_edge_connected(g)

    def test_too_small_graphs(self):
        with pytest.raises(GraphFormatError, match="at least 2"):
            check_two_edge_connected(nx.Graph())
        single = nx.Graph()
        single.add_node(0)
        assert not is_two_edge_connected(single)
        with pytest.raises(GraphFormatError):
            check_two_edge_connected(single)

    def test_cycle_is_feasible(self):
        g = _weighted([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        check_two_edge_connected(g)  # no raise
        assert is_two_edge_connected(g)
        assert find_bridges(g) == []


class TestNormalizeGraph:
    def test_labels_round_trip_and_attributes_survive(self):
        g = nx.Graph()
        g.add_edge("a", "b", weight=1.5, color="red")
        g.add_edge("b", "c", weight=2.0)
        g.add_edge("c", "a", weight=3.0)
        out, nodes, index = normalize_graph(g)
        assert sorted(out.nodes()) == [0, 1, 2]
        assert nodes == ["a", "b", "c"]
        assert index == {"a": 0, "b": 1, "c": 2}
        assert out[0][1]["weight"] == 1.5 and out[0][1]["color"] == "red"


class TestHandleRejections:
    """GraphHandle (the service's entry) raises the same validation errors."""

    def test_disconnected(self):
        g = _weighted([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
                       (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0)])
        with pytest.raises(NotConnectedError):
            GraphHandle.from_graph(g)

    def test_bridge(self):
        g = _weighted([(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(NotTwoEdgeConnectedError):
            GraphHandle.from_graph(g)

    def test_bad_weight(self):
        g = _weighted([(0, 1, 1.0), (1, 2, -2.0), (2, 0, 1.0)])
        with pytest.raises(GraphFormatError):
            GraphHandle.from_graph(g)


class TestDuplicateEdges:
    """nx.Graph collapses duplicates silently; the wire protocol must not."""

    def test_nx_collapses_duplicates_last_weight_wins(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(1, 0, weight=9.0)  # silently replaces the first
        assert g.number_of_edges() == 1
        assert g[0][1]["weight"] == 9.0

    def test_protocol_rejects_what_nx_would_collapse(self):
        from repro.serve.protocol import ProtocolError, parse_graph_payload

        with pytest.raises(ProtocolError) as excinfo:
            parse_graph_payload(
                {"edges": [[0, 1, 1.0], [1, 2, 1.0], [1, 0, 9.0]]}
            )
        assert excinfo.value.code == "duplicate-edge"


#: A 4-cycle; each rejection case appends one bad edge to it.
SQUARE = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]


class TestFromEdgesRejections:
    """``from_edges`` and ``from_graph`` name the same bad edge alike."""

    @pytest.mark.parametrize("bad, message", [
        ((1, 1, 1.0), "self-loop at 1"),
        ((1, 3, None), "edge (1, 3) has no 'weight'"),
        pytest.param((1, 3, 10 ** 400), "edge (1, 3) has invalid weight 1",
                     id="int-beyond-float-range"),
        ((1, 3, float("nan")), "edge (1, 3) has invalid weight nan"),
        ((1, 3, -1), "edge (1, 3) has invalid weight -1"),
    ])
    def test_both_constructors_raise_the_nx_check_message(self, bad, message):
        g = nx.Graph()
        for u, v, w in SQUARE + [bad]:
            g.add_edge(u, v)
            if w is not None:
                g[u][v]["weight"] = w
        with pytest.raises(GraphFormatError) as via_nx_check:
            ensure_weights(g)
        with pytest.raises(GraphFormatError) as via_graph:
            GraphHandle.from_graph(g)
        with pytest.raises(GraphFormatError) as via_edges:
            GraphHandle.from_edges(range(4), SQUARE + [bad])
        assert str(via_nx_check.value).startswith(message)
        assert str(via_graph.value) == str(via_nx_check.value)
        assert str(via_edges.value) == str(via_nx_check.value)

    @pytest.mark.parametrize("nodes, bad, match", [
        (range(4), (1, 9, 1.0), r"edge \(1, 9\) names a label missing"),
        (range(4), (1, 2, 2.0), r"edge \(1, 2\) repeats an earlier edge"),
        (range(4), (2, 1, 2.0), r"edge \(2, 1\) repeats an earlier edge"),
        ([0, 1, 2, 3, 1], (0, 2, 1.0), "repeats a label"),
    ])
    def test_from_edges_rejects_what_nx_cannot_express(self, nodes, bad, match):
        with pytest.raises(GraphFormatError, match=match):
            GraphHandle.from_edges(nodes, SQUARE + [bad])

    @pytest.mark.parametrize("nodes", [[], [0]])
    def test_from_edges_needs_two_nodes(self, nodes):
        with pytest.raises(GraphFormatError, match="at least 2 vertices"):
            GraphHandle.from_edges(nodes, [])

    def test_the_first_bad_edge_in_input_order_is_named(self):
        edges = [(0, 1, 1.0), (1, 2, -1.0), (2, 2, 1.0), (2, 0, 1.0)]
        with pytest.raises(GraphFormatError, match="invalid weight -1.0"):
            GraphHandle.from_edges(range(3), edges)

    def test_payload_lists_are_accepted(self):
        handle = GraphHandle.from_edges(
            ["a", "b", "c"], [["a", "b", 1], ["c", "b", 2.5], ["a", "c", 1]]
        )
        assert handle.edges == [(0, 1), (2, 1), (0, 2)]
        assert handle.weights == (1, 2.5, 1)
        assert handle.has_edge(1, 2) and handle.has_edge(2, 1)
        assert not handle.has_edge(0, 0)


class TestInputGraphTypes:
    """Only undirected simple graphs reach the solvers."""

    @staticmethod
    def _triangles(graph: nx.Graph) -> nx.Graph:
        for u, v in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
            graph.add_edge(u, v, weight=1.0)
        return graph

    def test_doubled_joint_in_a_multigraph_is_a_format_error(self):
        # Parallel edges are no bridges, so nx.bridges passed this graph
        # and the solve failed later, naming normalized ids.
        g = self._triangles(nx.MultiGraph())
        g.add_edge(2, 3, weight=1.0)
        g.add_edge(2, 3, weight=2.0)
        with pytest.raises(GraphFormatError, match="MultiGraph"):
            approximate_two_ecss(g)

    def test_redundant_parallel_edge_is_a_format_error(self):
        # Solved, this graph's result would list the pair once.
        g = nx.MultiGraph()
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)]:
            g.add_edge(u, v, weight=1.0)
        with pytest.raises(GraphFormatError, match="MultiGraph"):
            approximate_two_ecss(g)

    def test_directed_graph_is_a_format_error(self):
        g = self._triangles(nx.DiGraph())
        with pytest.raises(GraphFormatError, match="DiGraph"):
            approximate_two_ecss(g)
        with pytest.raises(GraphFormatError, match="DiGraph"):
            check_two_edge_connected(g)
