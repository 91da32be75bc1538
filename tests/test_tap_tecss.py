"""End-to-end tests for approximate_tap and approximate_two_ecss."""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest

import repro
from repro.core.tap import approximate_tap
from repro.core.tecss import approximate_two_ecss, assemble_two_ecss, rooted_mst
from repro.exceptions import InvariantViolation, NotTwoEdgeConnectedError
from repro.graphs import (
    cycle_with_chords,
    erdos_renyi_2ec,
    grid_graph,
    hub_and_cycle,
    is_two_edge_connected,
)

from conftest import random_tap_links, random_tree


class TestTap:
    @pytest.mark.parametrize("variant", ["improved", "basic"])
    @pytest.mark.parametrize("segmented", [True, False])
    def test_solution_is_valid_augmentation(self, variant, segmented):
        # Every tree edge must lie on the tree path of some chosen link
        # (links parallel to tree edges are legitimate in TAP, so the check
        # is on path coverage, not simple-graph bridges).
        tree = random_tree(60, seed=1)
        links = random_tap_links(tree, 120, seed=2)
        res = approximate_tap(tree, links, eps=0.3, variant=variant, segmented=segmented)
        covered = set()
        for u, v in res.links:
            covered.update(tree.path_edges(u, v))
        assert covered == set(tree.tree_edges())

    def test_certified_virtual_ratio_within_guarantee(self):
        for seed in range(5):
            tree = random_tree(50, seed=seed)
            links = random_tap_links(tree, 100, seed=seed + 30)
            res = approximate_tap(tree, links, eps=0.5)
            assert res.certified_virtual_ratio <= res.guarantee + 1e-9
            assert res.guarantee == pytest.approx(2 * (1 + 0.25))

    def test_weight_consistency(self):
        tree = random_tree(40, seed=3)
        links = random_tap_links(tree, 80, seed=4)
        res = approximate_tap(tree, links, eps=0.3)
        weights = {}
        for u, v, w in links:
            weights.setdefault((u, v), w)
        assert res.weight == pytest.approx(
            sum(weights[link] for link in set(res.links))
        )
        assert res.weight <= res.virtual_weight + 1e-9

    def test_improved_beats_or_matches_basic_guarantee(self):
        tree = random_tree(50, seed=5)
        links = random_tap_links(tree, 100, seed=6)
        imp = approximate_tap(tree, links, eps=0.3, variant="improved")
        bas = approximate_tap(tree, links, eps=0.3, variant="basic")
        assert imp.guarantee < bas.guarantee
        # both certified against the same kind of dual bound
        assert imp.certified_virtual_ratio <= imp.guarantee + 1e-9
        assert bas.certified_virtual_ratio <= bas.guarantee + 1e-9

    def test_eps_scaling_in_iterations(self):
        tree = random_tree(60, seed=7)
        links = random_tap_links(tree, 120, seed=8)
        small = approximate_tap(tree, links, eps=0.05)
        large = approximate_tap(tree, links, eps=1.0)
        assert max(small.iterations_per_epoch.values()) >= max(
            large.iterations_per_epoch.values()
        )


class TestTwoEcss:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: cycle_with_chords(40, 15, seed=1),
            lambda: erdos_renyi_2ec(50, seed=2),
            lambda: grid_graph(6, 6, seed=3),
            lambda: hub_and_cycle(30, seed=4),
        ],
    )
    def test_output_two_edge_connected_and_certified(self, maker):
        g = maker()
        res = approximate_two_ecss(g, eps=0.4)
        sub = nx.Graph()
        sub.add_nodes_from(g.nodes())
        sub.add_edges_from(res.edges)
        assert is_two_edge_connected(sub)
        assert res.certified_ratio <= res.guarantee + 1e-9
        assert res.weight == pytest.approx(
            sum(g[u][v]["weight"] for u, v in res.edges)
        )

    def test_subgraph_spans_all_vertices(self):
        g = erdos_renyi_2ec(40, seed=5)
        res = approximate_two_ecss(g, eps=0.4)
        touched = {u for e in res.edges for u in e}
        assert touched == set(g.nodes())

    def test_mst_contained(self):
        g = cycle_with_chords(30, 10, seed=6)
        res = approximate_two_ecss(g, eps=0.4)
        assert set(map(tuple, res.mst_edges)) <= set(map(tuple, res.edges))

    def test_arbitrary_node_labels(self):
        g = nx.relabel_nodes(cycle_with_chords(20, 8, seed=7), lambda i: f"node{i}")
        res = approximate_two_ecss(g, eps=0.4)
        assert all(isinstance(u, str) for e in res.edges for u in e)

    def test_bridge_graph_rejected(self):
        g = nx.cycle_graph(5)
        g.add_edge(0, 99, weight=1.0)
        for u, v in g.edges():
            g[u][v]["weight"] = 1.0
        with pytest.raises(NotTwoEdgeConnectedError):
            approximate_two_ecss(g)

    def test_bridged_result_is_a_solver_fault(self):
        """A bridged result fails validation as the solver's fault.

        The input is 2-edge-connected; dropping the augmentation's links
        leaves the bare MST, whose bridge is named in the caller's labels
        and served as a 500 ``solver-error``, not a 422 on the input.
        """
        from repro.runtime.handle import GraphHandle
        from repro.runtime.plan import SolverPlan
        from repro.serve.workers import error_item_from_exception

        g = nx.relabel_nodes(nx.cycle_graph(6), lambda i: f"v{i}")
        g.add_edge("v0", "v3")
        nx.set_edge_attributes(g, 1.0, "weight")
        plan = SolverPlan(GraphHandle.from_graph(g))
        tap = approximate_two_ecss(g).augmentation
        bare = dataclasses.replace(tap, links=[], weight=0.0)
        with pytest.raises(
            InvariantViolation, match=r"bridge \('v\d', 'v\d'\)"
        ) as excinfo:
            assemble_two_ecss(
                plan.g, plan.nodes, plan.mst_edges, bare,
                diameter=plan.diameter,
            )
        item = error_item_from_exception(excinfo.value)
        assert (item["status"], item["error"]["code"]) == (500, "solver-error")

    def test_guarantee_values(self):
        g = cycle_with_chords(25, 10, seed=8)
        imp = approximate_two_ecss(g, eps=0.25, variant="improved")
        bas = approximate_two_ecss(g, eps=0.25, variant="basic")
        assert imp.guarantee == pytest.approx(5.25)
        assert bas.guarantee == pytest.approx(9.25)

    def test_package_level_export(self):
        g = cycle_with_chords(20, 8, seed=9)
        res = repro.approximate_two_ecss(g, eps=0.5)
        assert res.summary().startswith("2-ECSS")
        assert res.modeled_rounds() > 0


class TestRootedMst:
    def test_mst_weight_matches_networkx(self):
        g = erdos_renyi_2ec(40, seed=10)
        tree, edges = rooted_mst(g)
        w = sum(g[u][v]["weight"] for u, v in edges)
        assert w == pytest.approx(
            nx.minimum_spanning_tree(g).size(weight="weight")
        )
        assert tree.n == g.number_of_nodes()
