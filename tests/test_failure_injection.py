"""Failure injection: malformed inputs must fail loudly and precisely.

A downstream user's first contact with the library is usually a bad input;
every public entry point must reject it with the documented exception, not
a deep stack trace from an internal invariant.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

import repro
from repro.baselines.exact_milp import brute_force_tap, exact_tap_milp
from repro.baselines.greedy_tap import greedy_tap
from repro.core.instance import TAPInstance
from repro.core.tap import approximate_tap
from repro.exceptions import (
    GraphFormatError,
    NotATreeError,
    NotConnectedError,
    NotTwoEdgeConnectedError,
    ReproError,
    SimulationError,
)
from repro.shortcuts.setcover import parallel_setcover_tap
from repro.shortcuts.tap_shortcut import shortcut_two_ecss
from repro.sim import (
    BatchedNetwork,
    DistributedBFS,
    FailurePlan,
    FloodMin,
    random_failure_plan,
)
from repro.trees.rooted import RootedTree

from conftest import random_tap_links, random_tree


def weighted_cycle(n=6, w=1.0):
    g = nx.cycle_graph(n)
    for u, v in g.edges():
        g[u][v]["weight"] = w
    return g


class TestGraphInputs:
    def test_missing_weights(self):
        g = nx.cycle_graph(5)
        with pytest.raises(GraphFormatError):
            repro.approximate_two_ecss(g)

    def test_nan_weight_rejected(self):
        g = weighted_cycle()
        g[0][1]["weight"] = float("nan")
        with pytest.raises(GraphFormatError):
            repro.approximate_two_ecss(g)

    def test_negative_weight_rejected(self):
        g = weighted_cycle()
        g[0][1]["weight"] = -2.0
        with pytest.raises(GraphFormatError):
            repro.approximate_two_ecss(g)

    def test_disconnected_rejected(self):
        g = nx.union(weighted_cycle(4), nx.relabel_nodes(weighted_cycle(4), lambda v: v + 10))
        with pytest.raises(NotConnectedError):
            repro.approximate_two_ecss(g)

    def test_bridge_rejected_everywhere(self):
        g = weighted_cycle(5)
        g.add_edge(0, 42, weight=1.0)
        for solver in (
            lambda: repro.approximate_two_ecss(g),
            lambda: shortcut_two_ecss(g),
        ):
            with pytest.raises(NotTwoEdgeConnectedError):
                solver()

    def test_self_loop_rejected(self):
        g = weighted_cycle()
        g.add_edge(2, 2, weight=1.0)
        with pytest.raises(GraphFormatError):
            repro.approximate_two_ecss(g)

    def test_tiny_graph_rejected(self):
        g = nx.Graph()
        g.add_node("only")
        with pytest.raises(ReproError):
            repro.approximate_two_ecss(g)

    def test_all_exceptions_share_base(self):
        for exc in (
            GraphFormatError,
            NotATreeError,
            NotConnectedError,
            NotTwoEdgeConnectedError,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)


class TestTapInputs:
    def test_infeasible_links_everywhere(self):
        tree = random_tree(8, shape="path")
        bad = [(7, 4, 1.0)]
        for solver in (
            lambda: approximate_tap(tree, bad),
            lambda: greedy_tap(tree, bad),
            lambda: exact_tap_milp(tree, bad),
            lambda: brute_force_tap(tree, bad),
            lambda: parallel_setcover_tap(tree, bad),
        ):
            with pytest.raises(NotTwoEdgeConnectedError):
                solver()

    def test_empty_links(self):
        tree = random_tree(5, shape="path")
        with pytest.raises(ReproError):
            approximate_tap(tree, [])

    def test_bad_eps_values(self):
        tree = random_tree(10, seed=1)
        links = random_tap_links(tree, 10, seed=2)
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError):
                approximate_tap(tree, links, eps=eps)
        with pytest.raises(ValueError):
            approximate_tap(tree, links, variant="fancy")

    def test_huge_eps_still_valid(self):
        # eps = 100 is legal (a very loose guarantee) and must still produce
        # a valid cover.
        tree = random_tree(15, seed=3)
        links = random_tap_links(tree, 25, seed=4)
        res = approximate_tap(tree, links, eps=100.0)
        covered = set()
        for u, v in res.links:
            covered.update(tree.path_edges(u, v))
        assert covered == set(tree.tree_edges())

    def test_link_endpoints_out_of_range(self):
        tree = random_tree(5, shape="path")
        with pytest.raises((IndexError, ReproError)):
            approximate_tap(tree, [(4, 17, 1.0)])


class TestTreeInputs:
    def test_cycle_in_parents(self):
        with pytest.raises(NotATreeError):
            RootedTree([-1, 2, 1], 0)

    def test_forest_rejected(self):
        with pytest.raises(NotATreeError):
            RootedTree.from_edges(5, [(0, 1), (2, 3)], root=0)

    def test_single_vertex_tap_trivial(self):
        tree = RootedTree([-1], 0)
        inst = TAPInstance.from_links(tree, [])
        inst.check_feasible()  # no tree edges to cover


class TestSimulatorInputs:
    def test_gap_in_node_ids(self):
        g = nx.Graph()
        g.add_edge(0, 7, weight=1.0)
        with pytest.raises(SimulationError):
            BatchedNetwork(g)

    def test_string_nodes(self):
        g = nx.Graph()
        g.add_edge("a", "b", weight=1.0)
        with pytest.raises(SimulationError):
            BatchedNetwork(g)


def _weighted_path(n):
    g = nx.path_graph(n)
    for _, _, d in g.edges(data=True):
        d["weight"] = 1.0
    return g


class TestFailureInjectionScenarios:
    """Edge-drop scenarios on the batched engine (transient-loss model)."""

    def test_severed_edge_partitions_bfs(self):
        # edge (2,3) down forever: BFS from 0 must stall at the cut, the
        # run still quiesces, and every lost message is accounted
        plan = FailurePlan().fail(2, 3)
        net = BatchedNetwork(_weighted_path(6), failures=plan, trace=True)
        stats = net.run(DistributedBFS(0))
        dist, _ = DistributedBFS.results(net)
        assert dist[:3] == [0, 1, 2]
        assert dist[3:] == [None, None, None]
        assert stats.quiescent
        assert stats.dropped > 0
        assert sum(r.dropped for r in net.trace) == stats.dropped == net.dropped
        assert sum(r.delivered for r in net.trace) == stats.messages - stats.dropped

    def test_bfs_reroutes_around_failed_cycle_edge(self):
        # on a cycle the wavefront routes around a severed edge: everyone
        # is still reached, but node 1 now sits a full lap away
        g = nx.cycle_graph(10)
        for _, _, d in g.edges(data=True):
            d["weight"] = 1.0
        clean = BatchedNetwork(g.copy())
        clean_stats = clean.run(DistributedBFS(0))
        plan = FailurePlan().fail(0, 1)
        net = BatchedNetwork(g.copy(), failures=plan)
        stats = net.run(DistributedBFS(0))
        dist, _ = DistributedBFS.results(net)
        clean_dist, _ = DistributedBFS.results(clean)
        assert all(d is not None for d in dist)
        assert dist[1] == 9 and clean_dist[1] == 1
        assert all(dist[v] >= clean_dist[v] for v in range(10))
        assert stats.rounds > clean_stats.rounds

    def test_flood_min_routes_around_failed_edge(self):
        # cycle: cutting one edge forces the minimum the long way round
        g = nx.cycle_graph(12)
        for _, _, d in g.edges(data=True):
            d["weight"] = 1.0
        values = [(v + 1,) for v in range(12)]
        values[6] = (0,)  # unique minimum at node 6
        active = {v: sorted(g.neighbors(v)) for v in g.nodes()}
        clean = BatchedNetwork(g.copy())
        clean_stats = clean.run(FloodMin(values, active))
        plan = FailurePlan().fail(6, 7)
        net = BatchedNetwork(g.copy(), failures=plan)
        stats = net.run(FloodMin(values, active))
        assert FloodMin.results(net) == FloodMin.results(clean) == [(0,)] * 12
        assert stats.rounds > clean_stats.rounds

    def test_asymmetric_failure_is_directional(self):
        plan = FailurePlan().fail(0, 1, symmetric=False)
        assert plan.is_down(1, 0, 1)
        assert not plan.is_down(1, 1, 0)
        sym = FailurePlan().fail(0, 1)
        assert sym.is_down(3, 0, 1) and sym.is_down(3, 1, 0)

    def test_budget_still_enforced_on_failed_edge(self):
        plan = FailurePlan().fail(0, 1)

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

        net = BatchedNetwork(_weighted_path(3), failures=plan)
        with pytest.raises(SimulationError, match="budget"):
            net.run(Chatty())

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="1-based"):
            FailurePlan().fail(0, 1, rounds=[0])
        with pytest.raises(ValueError, match="probability"):
            random_failure_plan(_weighted_path(4), p=1.5, max_rounds=3)

    def test_random_plan_is_seeded(self):
        g = _weighted_path(6)
        a = random_failure_plan(g, p=0.3, max_rounds=10, seed=4)
        b = random_failure_plan(g, p=0.3, max_rounds=10, seed=4)
        c = random_failure_plan(g, p=0.3, max_rounds=10, seed=5)
        assert a.by_round == b.by_round
        assert a.by_round != c.by_round
        stats_a = BatchedNetwork(g, failures=a).run(DistributedBFS(0))
        stats_b = BatchedNetwork(g, failures=b).run(DistributedBFS(0))
        assert stats_a == stats_b and stats_a.dropped == stats_b.dropped

    def test_random_plan_takes_any_hashable_labels(self):
        """Edges are drawn in node-position order, never by comparing
        labels: mixed int/str labels work, and a relabeled twin with the
        same node order draws the same plan."""
        g = nx.cycle_graph(["a", 1, "b", 2])
        ints = nx.cycle_graph(4)
        names = dict(enumerate(g.nodes()))
        plan = random_failure_plan(g, p=0.5, max_rounds=8, seed=3)
        twin = random_failure_plan(ints, p=0.5, max_rounds=8, seed=3)
        assert plan.by_round
        assert plan.by_round == {
            r: {(names[u], names[v]) for u, v in pairs}
            for r, pairs in twin.by_round.items()
        }

    def test_random_plan_on_ascending_ids_keeps_the_sorted_draw(self):
        g = _weighted_path(7)
        g.add_edge(0, 6, weight=1.0)
        rng = random.Random(2)
        want = FailurePlan()
        for r in range(1, 6):
            for u, v in sorted(tuple(sorted(e)) for e in g.edges()):
                if rng.random() < 0.4:
                    want.fail(u, v, rounds=[r])
        got = random_failure_plan(g, p=0.4, max_rounds=5, seed=2)
        assert got.by_round == want.by_round

    def test_drop_accounting_is_per_run_and_plan_stays_immutable(self):
        # Regression: the engine used to accumulate a lifetime counter on
        # the plan, so reusing one plan across runs conflated their stats.
        import copy

        plan = FailurePlan().fail(2, 3)
        before = copy.deepcopy(plan)
        net = BatchedNetwork(_weighted_path(6), failures=plan)
        stats1 = net.run(DistributedBFS(0))
        assert stats1.dropped > 0
        assert net.dropped == stats1.dropped
        net.reset_state()
        stats2 = net.run(DistributedBFS(0))
        assert stats2.dropped == stats1.dropped  # reset each run
        assert net.dropped == stats2.dropped
        # The plan is pure configuration: bitwise-unchanged after two runs.
        assert plan == before
        # A second network reusing the same plan sees identical behavior.
        stats3 = BatchedNetwork(_weighted_path(6), failures=plan).run(
            DistributedBFS(0)
        )
        assert stats3 == stats1

    def test_empty_plan_matches_oracle(self):
        g = _weighted_path(10)
        plan = FailurePlan()
        assert plan.empty()
        stats = BatchedNetwork(g, failures=plan).run(DistributedBFS(0))
        assert stats == BatchedNetwork(g, scheduler="sync").run(DistributedBFS(0))
        assert stats.dropped == 0
