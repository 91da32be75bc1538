"""Tests for the parallel set cover and the Theorem 1.2 pipeline."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.baselines.exact_milp import exact_tap_milp
from repro.baselines.greedy_tap import greedy_tap
from repro.exceptions import NotTwoEdgeConnectedError
from repro.graphs import cycle_with_chords, erdos_renyi_2ec, grid_graph, is_two_edge_connected
from repro.shortcuts.setcover import parallel_setcover_tap
from repro.shortcuts.tap_shortcut import shortcut_tap, shortcut_two_ecss

from conftest import needs_milp, random_tap_links, random_tree


class TestParallelSetCover:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_produces_valid_cover(self, seed):
        tree = random_tree(60, seed=seed)
        links = random_tap_links(tree, 120, seed=seed + 10)
        res = parallel_setcover_tap(tree, links, seed=seed)
        covered = set()
        for u, v in res.links:
            covered.update(tree.path_edges(u, v))
        assert covered == set(tree.tree_edges())

    def test_deterministic_given_seed(self):
        tree = random_tree(40, seed=4)
        links = random_tap_links(tree, 80, seed=5)
        r1 = parallel_setcover_tap(tree, links, seed=9)
        r2 = parallel_setcover_tap(tree, links, seed=9)
        assert r1.links == r2.links
        assert r1.weight == r2.weight

    @needs_milp
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_log_quality_vs_exact(self, seed):
        # O(log n) approximation: compare against the exact optimum on
        # small instances (the constant in O() is modest in practice).
        tree = random_tree(12, seed=seed)
        links = random_tap_links(tree, 6, seed=seed + 20)
        opt = exact_tap_milp(tree, links)
        res = parallel_setcover_tap(tree, links, seed=seed)
        assert res.weight <= (math.log(tree.n) + 1) * opt.weight * 1.5 + 1e-9

    def test_comparable_to_sequential_greedy(self):
        tree = random_tree(50, seed=6)
        links = random_tap_links(tree, 100, seed=7)
        par = parallel_setcover_tap(tree, links, seed=8)
        seq = greedy_tap(tree, links)
        # the parallel variant may lose a constant factor vs greedy
        assert par.weight <= 6.0 * seq.weight + 1e-9

    def test_iteration_accounting(self):
        tree = random_tree(50, seed=9)
        links = random_tap_links(tree, 100, seed=10)
        res = parallel_setcover_tap(tree, links, seed=11)
        assert res.iterations >= res.phases >= 1
        assert res.accepts >= 1
        assert res.partwise_ops > 0
        assert res.modeled_rounds(10, 50.0) >= res.iterations * 10

    def test_infeasible_raises(self):
        tree = random_tree(10, shape="path")
        with pytest.raises(NotTwoEdgeConnectedError):
            parallel_setcover_tap(tree, [(9, 5, 1.0)], seed=0)

    def test_bad_eps(self):
        tree = random_tree(10, seed=1)
        with pytest.raises(ValueError):
            parallel_setcover_tap(tree, [(1, 2, 1.0)], eps=1.5)


class TestShortcutTwoEcss:
    @pytest.mark.parametrize("maker", [
        lambda: grid_graph(6, 6, seed=1),
        lambda: erdos_renyi_2ec(60, seed=2),
        lambda: cycle_with_chords(50, 20, seed=3),
    ])
    def test_output_feasible(self, maker):
        g = maker()
        res = shortcut_two_ecss(g, seed=4)
        sub = nx.Graph()
        sub.add_nodes_from(g.nodes())
        sub.add_edges_from(res.edges)
        assert is_two_edge_connected(sub)
        assert res.weight >= res.mst_weight

    def test_quality_measured(self):
        g = grid_graph(6, 6, seed=5)
        res = shortcut_two_ecss(g, seed=6)
        assert res.shortcut_quality > 0
        assert res.modeled_rounds > 0
        assert "shortcut 2-ECSS" in res.summary()

    def test_shortcut_tap_standalone(self):
        tree = random_tree(40, seed=7)
        links = random_tap_links(tree, 80, seed=8)
        res = shortcut_tap(tree, links, seed=9)
        covered = set()
        for u, v in res.links:
            covered.update(tree.path_edges(u, v))
        assert covered == set(tree.tree_edges())
