"""Tests for the CONGEST simulator and its node programs."""

from __future__ import annotations

import functools
import random

import networkx as nx
import pytest

from repro.exceptions import SimulationError
from repro.graphs import cycle_with_chords, erdos_renyi_2ec, grid_graph
from repro.sim import (
    BatchedNetwork,
    BoruvkaMST,
    DistributedBFS,
    FloodMin,
    TreeAggregate,
    TreeBroadcast,
)

from conftest import random_tree, tree_as_networkx


def make_network(g: nx.Graph, words: int = 4) -> BatchedNetwork:
    for u, v, d in g.edges(data=True):
        d.setdefault("weight", 1.0)
    return BatchedNetwork(g, words_per_edge=words)


class TestNetworkMechanics:
    def test_rejects_non_compact_labels(self):
        g = nx.Graph()
        g.add_edge(0, 5, weight=1.0)
        with pytest.raises(SimulationError):
            BatchedNetwork(g)

    def test_bandwidth_enforced(self):
        g = nx.path_graph(3)
        net = make_network(g, words=2)

        class Chatty:
            def setup(self, ctx):
                ctx.state["sent"] = False

            def step(self, ctx, inbox):
                if ctx.node == 0 and not ctx.state["sent"]:
                    ctx.state["sent"] = True
                    return {1: (1, 2, 3, 4, 5)}
                return {}

            def wants_to_continue(self, ctx):
                return False

        with pytest.raises(SimulationError, match="budget"):
            net.run(Chatty())

    def test_rejects_send_to_non_neighbor(self):
        g = nx.path_graph(3)
        net = make_network(g)

        class Teleport:
            def setup(self, ctx):
                pass

            def step(self, ctx, inbox):
                if ctx.node == 0:
                    return {2: (1,)}
                return {}

            def wants_to_continue(self, ctx):
                return False

        with pytest.raises(SimulationError, match="non-neighbor"):
            net.run(Teleport())

    def test_rejects_non_numeric_payload(self):
        g = nx.path_graph(2)
        net = make_network(g)

        class Texting:
            def setup(self, ctx):
                pass

            def step(self, ctx, inbox):
                return {1: ("hello",)} if ctx.node == 0 else {}

            def wants_to_continue(self, ctx):
                return False

        with pytest.raises(SimulationError, match="non-numeric"):
            net.run(Texting())


class TestBfs:
    @pytest.mark.parametrize("maker", [
        lambda: nx.path_graph(12),
        lambda: nx.cycle_graph(11),
        lambda: grid_graph(4, 5, seed=1),
        lambda: erdos_renyi_2ec(40, seed=2),
    ])
    def test_distances_match_networkx(self, maker):
        g = maker()
        net = make_network(g)
        stats = net.run(DistributedBFS(0))
        dist, parent = DistributedBFS.results(net)
        expected = nx.single_source_shortest_path_length(g, 0)
        for v in g.nodes():
            assert dist[v] == expected[v]
        assert stats.quiescent

    def test_round_count_is_eccentricity(self):
        g = nx.path_graph(20)
        net = make_network(g)
        stats = net.run(DistributedBFS(0))
        ecc = nx.eccentricity(g, 0)
        assert ecc <= stats.rounds <= ecc + 2

    def test_parents_form_bfs_tree(self):
        g = erdos_renyi_2ec(30, seed=3)
        net = make_network(g)
        net.run(DistributedBFS(0))
        dist, parent = DistributedBFS.results(net)
        for v in g.nodes():
            if v != 0:
                assert parent[v] in g[v]
                assert dist[parent[v]] == dist[v] - 1


class TestFloodMin:
    def test_component_minimum(self):
        g = nx.Graph()
        g.add_edges_from([(0, 1), (1, 2), (3, 4)])
        g.add_node(5)
        for u, v, d in g.edges(data=True):
            d["weight"] = 1.0
        # active edges restricted to the graph's own edges
        net = BatchedNetwork(g)
        values = [(7,), (3,), (9,), (2,), (8,), (1,)]
        active = {v: sorted(g.neighbors(v)) for v in g.nodes()}
        net.run(FloodMin(values, active))
        res = FloodMin.results(net)
        assert [r[0] for r in res] == [3, 3, 3, 2, 2, 1]

    def test_rounds_close_to_diameter(self):
        g = nx.path_graph(30)
        for u, v, d in g.edges(data=True):
            d["weight"] = 1.0
        net = BatchedNetwork(g)
        values = [(v,) for v in range(30)]
        active = {v: sorted(g.neighbors(v)) for v in g.nodes()}
        stats = net.run(FloodMin(values, active))
        assert stats.rounds <= 31


class TestTreePrograms:
    def test_broadcast_reaches_all(self):
        t = random_tree(40, seed=4)
        g = tree_as_networkx(t)
        for u, v, d in g.edges(data=True):
            d["weight"] = 1.0
        net = BatchedNetwork(g)
        stats = net.run(TreeBroadcast(t.parent, t.root, (42,)))
        assert all(v == (42,) for v in TreeBroadcast.results(net))
        assert stats.rounds <= t.height + 2

    def test_aggregate_sum(self):
        t = random_tree(50, seed=5)
        g = tree_as_networkx(t)
        for u, v, d in g.edges(data=True):
            d["weight"] = 1.0
        net = BatchedNetwork(g)
        inputs = [(float(v),) for v in range(t.n)]
        combine = lambda a, b: (a[0] + b[0],)
        stats = net.run(TreeAggregate(t.parent, t.root, inputs, combine))
        total = TreeAggregate.result(net, t.root)
        assert total[0] == pytest.approx(sum(range(t.n)))
        assert stats.rounds <= t.height + 2

    def test_aggregate_min_and_xor(self):
        t = random_tree(30, seed=6)
        g = tree_as_networkx(t)
        for u, v, d in g.edges(data=True):
            d["weight"] = 1.0
        rng = random.Random(7)
        vals = [rng.randrange(1 << 20) for _ in range(t.n)]
        net = BatchedNetwork(g)
        net.run(TreeAggregate(t.parent, t.root, [(v,) for v in vals], lambda a, b: (min(a[0], b[0]),)))
        assert TreeAggregate.result(net, t.root)[0] == min(vals)
        net.reset_state()
        net.run(TreeAggregate(t.parent, t.root, [(v,) for v in vals], lambda a, b: (a[0] ^ b[0],)))
        expected = functools.reduce(lambda x, y: x ^ y, vals)
        assert TreeAggregate.result(net, t.root)[0] == expected


class TestBoruvka:
    @pytest.mark.parametrize("maker", [
        lambda: cycle_with_chords(25, 12, seed=1),
        lambda: erdos_renyi_2ec(35, seed=2),
        lambda: grid_graph(5, 5, seed=3),
    ])
    def test_matches_centralized_mst_weight(self, maker):
        g = maker()
        net = BatchedNetwork(g)
        out = BoruvkaMST(net).run()
        expected = nx.minimum_spanning_tree(g).size(weight="weight")
        assert out.weight == pytest.approx(expected)
        # the result is a spanning tree
        t = nx.Graph(out.edges)
        assert t.number_of_nodes() == g.number_of_nodes()
        assert t.number_of_edges() == g.number_of_nodes() - 1
        assert nx.is_connected(t)

    def test_phase_bound(self):
        g = erdos_renyi_2ec(64, seed=4)
        out = BoruvkaMST(BatchedNetwork(g)).run()
        assert out.phases <= 8  # log2(64) + margin

    def test_rounds_recorded(self):
        g = cycle_with_chords(20, 5, seed=5)
        out = BoruvkaMST(BatchedNetwork(g)).run()
        assert out.stats.rounds > 0
        assert out.stats.messages > 0

    def test_single_node(self):
        g = nx.Graph()
        g.add_node(0)
        out = BoruvkaMST(BatchedNetwork(g)).run()
        assert out.edges == []
        assert out.weight == 0
