"""Tests for baselines: greedy, arborescence-exact, MILP, brute force.

The cross-checks here are the backbone of the experiment suite's trust
chain: brute force == MILP == arborescence (on vertical instances), and the
paper's algorithm respects its guarantee against all of them.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.baselines.arborescence import (
    exact_vertical_tap,
    kt_tecss_3approx,
    tap_2approx_arborescence,
)
from repro.baselines.exact_milp import (
    brute_force_tap,
    brute_force_two_ecss,
    exact_tap_milp,
    exact_two_ecss_milp,
)
from repro.baselines.greedy_tap import greedy_tap
from repro.baselines.trivial import all_edges_solution, mst_plus_cheapest_cover
from repro.core.instance import TAPInstance
from repro.core.tap import approximate_tap
from repro.core.virtual_graph import build_virtual_edges
from repro.exceptions import NotTwoEdgeConnectedError, SolverError
from repro.graphs import cycle_with_chords, erdos_renyi_2ec

from conftest import (
    needs_milp,
    random_tap_links,
    random_tree,
    random_vertical_edges,
)


def small_links(tree, count, seed):
    rng = random.Random(seed)
    links = []
    for dec, anc in random_vertical_edges(tree, count - len(tree.leaves()), seed=seed):
        links.append((dec, anc, rng.uniform(1, 20)))
    for leaf in tree.leaves():
        links.append((leaf, tree.root, rng.uniform(10, 40)))
    return links


class TestCrossChecks:
    @needs_milp
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_milp_equals_brute_force_tap(self, seed):
        tree = random_tree(8, seed=seed)
        links = small_links(tree, 10, seed + 10)[:14]
        bf = brute_force_tap(tree, links)
        mi = exact_tap_milp(tree, links)
        assert mi.weight == pytest.approx(bf.weight, rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_arborescence_exact_on_vertical_instances(self, seed):
        # On purely vertical links, Edmonds == brute force == MILP.
        tree = random_tree(9, seed=seed)
        rng = random.Random(seed)
        links = [
            (dec, anc, rng.uniform(1, 20))
            for dec, anc in random_vertical_edges(tree, 8, seed=seed)
        ]
        for leaf in tree.leaves():
            links.append((leaf, tree.root, rng.uniform(10, 40)))
        links = links[:14]
        vedges = build_virtual_edges(tree, links)
        try:
            bf = brute_force_tap(tree, links)
        except NotTwoEdgeConnectedError:
            return
        arb = exact_vertical_tap(tree, vedges)
        assert arb.weight == pytest.approx(bf.weight, rel=1e-9)

    @needs_milp
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_ecss_milp_equals_brute_force(self, seed):
        g = cycle_with_chords(7, 3, seed=seed)
        bf = brute_force_two_ecss(g)
        mi = exact_two_ecss_milp(g)
        assert mi.weight == pytest.approx(bf.weight, rel=1e-9)

    @needs_milp
    def test_two_ecss_milp_solution_is_feasible(self):
        g = erdos_renyi_2ec(16, seed=7)
        res = exact_two_ecss_milp(g)
        sub = nx.Graph()
        sub.add_nodes_from(g.nodes())
        sub.add_edges_from(res.chosen)
        assert nx.is_connected(sub)
        assert next(nx.bridges(sub), None) is None


class TestGuarantees:
    @needs_milp
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_fj_2approx_against_milp(self, seed):
        tree = random_tree(12, seed=seed)
        links = small_links(tree, 14, seed + 20)[:16]
        opt = exact_tap_milp(tree, links)
        _, w2 = tap_2approx_arborescence(tree, links)
        assert w2 <= 2 * opt.weight + 1e-9
        assert w2 >= opt.weight - 1e-9

    @needs_milp
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_greedy_log_ratio(self, seed):
        tree = random_tree(12, seed=seed)
        links = small_links(tree, 14, seed + 30)[:16]
        opt = exact_tap_milp(tree, links)
        gr = greedy_tap(tree, links)
        h_n = math.log(tree.n) + 1
        assert gr.weight <= h_n * opt.weight + 1e-9

    @needs_milp
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_paper_algorithm_respects_exact_opt(self, seed):
        # The headline sanity check: (4+eps)-approx TAP vs the true optimum.
        eps = 0.5
        tree = random_tree(12, seed=seed)
        links = small_links(tree, 14, seed + 40)[:16]
        opt = exact_tap_milp(tree, links)
        res = approximate_tap(tree, links, eps=eps)
        assert res.weight <= (4 + eps) * opt.weight + 1e-9

    @pytest.mark.parametrize("seed", [1, 2])
    def test_paper_2ecss_respects_exact_opt(self, seed):
        g = cycle_with_chords(7, 2, seed=seed)
        from repro.core.tecss import approximate_two_ecss

        opt = brute_force_two_ecss(g)
        res = approximate_two_ecss(g, eps=0.5)
        assert res.weight <= (5 + 0.5) * opt.weight + 1e-9
        # ... and the certified lower bound is indeed a lower bound:
        assert res.certified_lower_bound <= opt.weight + 1e-9

    def test_kt_3approx_feasible_and_bounded(self):
        g = erdos_renyi_2ec(30, seed=9)
        res = kt_tecss_3approx(g)
        sub = nx.Graph()
        sub.add_nodes_from(g.nodes())
        sub.add_edges_from(res.edges)
        assert nx.is_connected(sub)
        assert next(nx.bridges(sub), None) is None
        assert res.weight == pytest.approx(res.mst_weight + res.aug_weight)


class TestTrivialBaselines:
    def test_all_edges_upper_bounds_everything(self):
        g = cycle_with_chords(15, 6, seed=3)
        from repro.core.tecss import approximate_two_ecss

        res = approximate_two_ecss(g, eps=0.5)
        assert res.weight <= all_edges_solution(g) + 1e-9

    def test_mst_plus_cheapest_cover_feasible_weightwise(self):
        g = cycle_with_chords(15, 6, seed=4)
        w = mst_plus_cheapest_cover(g)
        assert w > 0
        assert w <= all_edges_solution(g) + 1e-9


class TestErrorHandling:
    def test_brute_force_caps(self):
        tree = random_tree(30, seed=1)
        links = small_links(tree, 40, seed=2)
        with pytest.raises(SolverError):
            brute_force_tap(tree, links)

    def test_infeasible_tap(self):
        tree = random_tree(8, shape="path")
        with pytest.raises(NotTwoEdgeConnectedError):
            exact_tap_milp(tree, [(7, 4, 1.0)])
        with pytest.raises(NotTwoEdgeConnectedError):
            greedy_tap(tree, [(7, 4, 1.0)])

    def test_greedy_covers(self):
        tree = random_tree(25, seed=5)
        links = random_tap_links(tree, 50, seed=6)
        res = greedy_tap(tree, links)
        covered = set()
        for u, v in res.links:
            covered.update(tree.path_edges(u, v))
        assert covered == set(tree.tree_edges())


class TestKEcssMilp:
    """The k-connectivity MILP, including its infeasibility paths.

    The 2-ECSS MILP's infeasibility coverage never exercised the k >= 3
    separation: a graph whose min cut is below k must surface as the
    structured connectivity error *before* (or instead of) the solver
    returning a disconnected "optimum".
    """

    def test_min_cut_below_k_is_structured(self):
        from repro.baselines.exact_milp import exact_k_ecss_milp
        from repro.exceptions import NotKEdgeConnectedError

        g = cycle_with_chords(10, 0, seed=1)  # exactly 2-edge-connected
        assert nx.edge_connectivity(g) == 2
        with pytest.raises(NotKEdgeConnectedError):
            exact_k_ecss_milp(g, 3)

    def test_disconnected_input_is_structured(self):
        from repro.baselines.exact_milp import exact_k_ecss_milp
        from repro.exceptions import NotConnectedError

        g = nx.Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(2, 3, weight=1.0)
        with pytest.raises(NotConnectedError):
            exact_k_ecss_milp(g, 3)

    @pytest.mark.parametrize("k", [0, 1, -1, 1.5, True])
    def test_bad_k_rejected(self, k):
        from repro.baselines.exact_milp import exact_k_ecss_milp

        g = cycle_with_chords(8, 2, seed=1)
        with pytest.raises(ValueError):
            exact_k_ecss_milp(g, k)

    @needs_milp
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_k2_equals_two_ecss_milp(self, seed):
        from repro.baselines.exact_milp import exact_k_ecss_milp

        g = cycle_with_chords(8, 3, seed=seed)
        assert exact_k_ecss_milp(g, 2).weight == pytest.approx(
            exact_two_ecss_milp(g).weight, rel=1e-9
        )

    @needs_milp
    @pytest.mark.parametrize("k", [3, 4])
    def test_optimum_is_k_connected(self, k):
        from repro.baselines.exact_milp import exact_k_ecss_milp
        from repro.core.k_ecss import assert_k_edge_connected

        g = erdos_renyi_2ec(10, 0.7, seed=4)
        if nx.edge_connectivity(g) < k:
            pytest.skip("instance below target connectivity")
        res = exact_k_ecss_milp(g, k)
        assert_k_edge_connected(g, res.chosen, k)
