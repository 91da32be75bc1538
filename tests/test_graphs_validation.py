"""Error-path coverage for ``repro.graphs.validation``.

The serving layer funnels untrusted payloads through these checks (via
:class:`repro.runtime.handle.GraphHandle`), so every rejection branch —
disconnected inputs, bridges, self-loops, missing/invalid weights — needs
explicit coverage, plus the duplicate-edge rejection that the wire
protocol adds on top (``nx.Graph`` silently collapses duplicates).
"""

from __future__ import annotations

import networkx as nx
import pytest

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
