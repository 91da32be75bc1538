"""The runtime layer: registry, handles, and session-reuse bit-identity.

The heart of this file is the seeded fuzz suite: for every registered
compute backend, repeated :class:`~repro.runtime.session.SolverSession`
solves — reweighted, eps/variant-swept, failure-injected, engine-crossed —
must be **bit-identical** to a fresh one-shot call with the same
parameters.  A fresh one-shot call builds a fresh single-use plan, so the
comparison is precisely "plan reuse vs rebuild".
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.core.tecss import approximate_two_ecss
from repro.dist.pipeline import distributed_two_ecss
from repro.exceptions import GraphFormatError, NotTwoEdgeConnectedError
from repro.fast import HAVE_NUMPY
from repro.graphs import cycle_with_chords
from repro.graphs.families import make_family_instance
from repro.runtime import (
    BackendSpec,
    GraphHandle,
    SolveQuery,
    SolverPlan,
    SolverSession,
    UnknownBackendError,
    backend_names,
    get_backend,
    register_backend,
    resolve_compute,
)
from repro.runtime.registry import KINDS, registered_payload, unregister_backend
from repro.sim.failures import random_failure_plan

COMPUTE_BACKENDS = ["reference"] + (["fast"] if HAVE_NUMPY else [])


def _reweighted(graph, seed):
    """A copy of ``graph`` with fresh seeded weights (same edge order)."""
    rng = random.Random(seed)
    out = graph.copy()
    weights = {}
    for u, v, data in out.edges(data=True):
        w = round(rng.uniform(0.5, 9.5), 3)
        data["weight"] = w
        weights[(u, v)] = w
    return out, weights


def _assert_same_result(a, b):
    """Field-by-field bit-identity of two TwoEcssResult objects."""
    assert a.edges == b.edges
    assert a.weight == b.weight
    assert a.mst_edges == b.mst_edges
    assert a.mst_weight == b.mst_weight
    assert a.diameter == b.diameter
    assert a.n == b.n
    assert a.guarantee == b.guarantee
    ta, tb = a.augmentation, b.augmentation
    assert ta.links == tb.links
    assert ta.weight == tb.weight
    assert ta.virtual_eids == tb.virtual_eids
    assert ta.virtual_weight == tb.virtual_weight
    assert ta.dual_bound == tb.dual_bound
    assert ta.guarantee == tb.guarantee
    assert ta.iterations_per_epoch == tb.iterations_per_epoch
    assert ta.num_layers == tb.num_layers
    assert ta.max_coverage_of_dual_edges == tb.max_coverage_of_dual_edges


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_default_names(self):
        assert set(backend_names("compute")) == {"auto", "fast", "reference"}
        assert set(backend_names("engine")) == {"local", "sim"}
        # one CONGEST network, nothing to choose: no "network" kind, and
        # the /backends payload lists compute and engine rows only
        assert KINDS == ("compute", "engine")
        assert {spec["kind"] for spec in registered_payload()} == set(KINDS)

    def test_unknown_name_is_one_line_listing(self):
        with pytest.raises(UnknownBackendError) as err:
            get_backend("compute", "warp-drive")
        msg = str(err.value)
        assert "\n" not in msg
        assert "warp-drive" in msg
        for name in backend_names("compute"):
            assert name in msg

    def test_unknown_backend_error_is_value_error(self):
        with pytest.raises(ValueError):
            get_backend("engine", "quantum")

    def test_resolve_compute(self):
        assert resolve_compute("reference") == "reference"
        expected = "fast" if HAVE_NUMPY else "reference"
        assert resolve_compute("auto") == expected

    def test_capability_flags(self):
        assert get_backend("engine", "sim").has("failure-injection")
        assert not get_backend("engine", "local").has("failure-injection")
        if HAVE_NUMPY:
            assert get_backend("compute", "fast").has("vectorized")

    def test_register_and_unregister(self):
        spec = BackendSpec(
            name="test-dummy", kind="engine", description="a test entry",
            capabilities=frozenset({"test"}),
        )
        register_backend(spec)
        try:
            assert get_backend("engine", "test-dummy") is spec
            with pytest.raises(ValueError, match="already registered"):
                register_backend(spec)
        finally:
            unregister_backend("engine", "test-dummy")
        with pytest.raises(UnknownBackendError):
            get_backend("engine", "test-dummy")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_backend(BackendSpec("x", "flux-capacitor", "nope"))


# ---------------------------------------------------------------------------
# handles and plans
# ---------------------------------------------------------------------------


class TestGraphHandle:
    def test_normalization_matches_one_shot(self):
        g = cycle_with_chords(20, 8, seed=3)
        relabeled = {v: f"node-{v}" for v in g.nodes()}
        import networkx as nx

        g = nx.relabel_nodes(g, relabeled)
        handle = GraphHandle.from_graph(g)
        assert handle.n == 20
        assert handle.m == g.number_of_edges()
        assert sorted(handle.nodes) == sorted(g.nodes())
        # The session path must match the one-shot API on labeled graphs.
        _assert_same_result(
            SolverSession(handle).solve(eps=0.5),
            approximate_two_ecss(g, eps=0.5),
        )

    def test_invalid_inputs_rejected_at_handle_time(self):
        import networkx as nx

        bridge = nx.path_graph(4)
        for _, _, d in bridge.edges(data=True):
            d["weight"] = 1.0
        with pytest.raises(NotTwoEdgeConnectedError):
            GraphHandle.from_graph(bridge)
        unweighted = nx.cycle_graph(4)
        with pytest.raises(GraphFormatError):
            GraphHandle.from_graph(unweighted)

    def test_reweight_shapes_and_validation(self):
        g = cycle_with_chords(16, 5, seed=1)
        handle = GraphHandle.from_graph(g)
        doubled = handle.reweight([2 * w for w in handle.weights])
        assert doubled.weights == tuple(2 * w for w in handle.weights)
        assert doubled.topology_key == handle.topology_key
        assert doubled.delta_base is handle
        assert len(doubled.delta_changes) == handle.m
        assert handle.reweight(list(handle.weights)) is handle  # no change
        by_edge = {e: 1.0 for e in handle.edge_list}
        flat = handle.reweight(by_edge)
        assert set(flat.weights) == {1.0}
        with pytest.raises(GraphFormatError):
            handle.reweight([1.0])  # wrong length
        with pytest.raises(GraphFormatError):
            handle.reweight([-1.0] * handle.m)  # negative weight
        with pytest.raises(GraphFormatError):
            handle.reweight({})  # missing edges

    def test_integer_weights_preserved(self):
        import networkx as nx

        g = nx.cycle_graph(6)
        for _, _, d in g.edges(data=True):
            d["weight"] = 3  # int, not float
        handle = GraphHandle.from_graph(g)
        assert all(isinstance(w, int) for w in handle.weights)
        res = approximate_two_ecss(g, eps=0.5)
        assert res.mst_weight == 15 and isinstance(res.mst_weight, int)

    def test_reweight_mapping_interpretation_is_all_or_nothing(self):
        # Labels [2, 0, 1] make normalized ids differ from int labels; a
        # mapping keyed by ids must not bind through the label scheme.
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from([2, 0, 1])
        g.add_edge(2, 0, weight=1.0)
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(1, 2, weight=1.0)
        handle = GraphHandle.from_graph(g)  # index: 2->0, 0->1, 1->2
        by_ids = {(0, 1): 5.0, (1, 2): 6.0, (2, 0): 7.0}
        clone = handle.reweight(by_ids)
        # Labels cover every edge too (triangle on {0,1,2}), so the label
        # interpretation wins deterministically; nx adjacency order from
        # node 2 yields label-edges (2,0), (2,1), (0,1) -> 7.0, 6.0, 5.0.
        assert list(clone.weights) == [7.0, 6.0, 5.0]
        # A mapping only coherent under ids resolves via ids.
        relabeled = {v: f"v{v}" for v in g.nodes()}
        gh = GraphHandle.from_graph(nx.relabel_nodes(g, relabeled))
        clone2 = gh.reweight({(0, 1): 5.0, (1, 2): 6.0, (0, 2): 7.0})
        assert sorted(clone2.weights) == [5.0, 6.0, 7.0]

    def test_reweight_shares_topology_caches(self):
        g = cycle_with_chords(16, 5, seed=2)
        handle = GraphHandle.from_graph(g)
        d = handle.diameter
        clone = handle.reweight([1.0] * handle.m)
        assert clone._shared["diameter"] == d  # shared, not recomputed
        # The share is by reference, both ways: a cache computed on a
        # clone *after* cloning must reach the base handle too.
        clone2 = handle.reweight([2.0] * handle.m)
        pi = clone2._pair_index
        assert handle._pair_index is pi
        assert clone._pair_index is pi


class TestSolverPlan:
    def test_artifacts_built_once(self):
        g = cycle_with_chords(24, 10, seed=4)
        plan = SolverPlan.for_graph(g)
        assert plan.instance("reference") is plan.instance("reference")
        assert plan.instance_builds == 1
        if HAVE_NUMPY:
            assert plan.instance("auto") is plan.instance("fast")
            assert plan.instance_builds == 2

    def test_private_instance_isolation(self):
        g = cycle_with_chords(24, 10, seed=4)
        plan = SolverPlan.for_graph(g)
        shared = plan.instance("reference")
        private = plan.private_instance("reference")
        assert private is not shared
        assert private.tree is shared.tree
        assert private.edges[0] is shared.edges[0]  # contents shared
        private.__dict__["ops"] = object()  # the dist pipeline's injection
        assert "ops" not in shared.__dict__ or shared.ops is not private.ops


# ---------------------------------------------------------------------------
# session reuse: the seeded fuzz suite (bit-identity vs one-shot)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
def test_fuzz_repeated_solves_match_one_shot(backend):
    """eps/variant sweeps on a reused plan == fresh one-shot per query."""
    rng = random.Random(20190723)
    for family, n in (("cycle_chords", 26), ("grid", 30), ("hub_cycle", 24)):
        seed = rng.randrange(1000)
        graph = make_family_instance(family, n, seed=seed)
        session = SolverSession(graph, backend=backend)
        for _ in range(3):
            eps = rng.choice([0.1, 0.25, 0.5, 1.0])
            variant = rng.choice(["improved", "basic"])
            got = session.solve(eps=eps, variant=variant)
            want = approximate_two_ecss(
                graph, eps=eps, variant=variant, backend=backend
            )
            _assert_same_result(got, want)
        stats = session.stats()
        assert stats["plans_built"] == 1
        assert stats["plan_hits"] == stats["solves"] - 1


@pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
def test_fuzz_reweighted_solves_match_one_shot(backend):
    """Weight reassignments on one topology == one-shot on reweighted graphs."""
    rng = random.Random(42)
    graph = make_family_instance("cycle_chords", 28, seed=7)
    session = SolverSession(graph, backend=backend)
    for trial in range(3):
        reweighted, weights = _reweighted(graph, seed=rng.randrange(1000))
        got = session.solve(eps=0.5, weights=weights)
        want = approximate_two_ecss(reweighted, eps=0.5, backend=backend)
        _assert_same_result(got, want)
    # Baseline weights still solve correctly after reweighted queries.
    _assert_same_result(
        session.solve(eps=0.5),
        approximate_two_ecss(graph, eps=0.5, backend=backend),
    )


def test_fuzz_failure_injected_solves_match_one_shot():
    """Lossy sim solves on a reused plan == fresh lossy one-shot runs."""
    graph = make_family_instance("cycle_chords", 22, seed=3)
    session = SolverSession(graph)
    for seed in (1, 2):
        plan = random_failure_plan(graph, p=0.25, max_rounds=12, seed=seed)
        got = session.solve(eps=0.5, engine="sim", failures=plan)
        want = distributed_two_ecss(graph, eps=0.5, failures=plan)
        _assert_same_result(got.result, want.result)
        assert got.measured_rounds == want.measured_rounds
        assert got.mismatch_counts == want.mismatch_counts
        # Lossy or not, the solution is the reference solution.
        _assert_same_result(
            got.result, approximate_two_ecss(graph, eps=0.5)
        )


def test_sim_engine_solves_match_one_shot_pipeline():
    graph = make_family_instance("grid", 25, seed=5)
    session = SolverSession(graph)
    got = session.solve(eps=0.5, engine="sim")
    want = distributed_two_ecss(graph, eps=0.5)
    _assert_same_result(got.result, want.result)
    assert got.measured_rounds == want.measured_rounds
    assert got.priced_rounds == want.priced_rounds
    assert got.comparison == want.comparison
    # A second sim solve reuses the plan and measures identical rounds.
    again = session.solve(eps=0.5, engine="sim")
    assert again.measured_rounds == want.measured_rounds


def test_solve_many_matches_individual_solves():
    graph = make_family_instance("cycle_chords", 24, seed=9)
    queries = [
        SolveQuery(eps=0.25),
        SolveQuery(eps=0.5, variant="basic"),
        dict(eps=1.0, backend="reference"),
    ]
    session = SolverSession(graph)
    batch = session.solve_many(queries)
    assert len(batch) == 3
    _assert_same_result(batch[0], approximate_two_ecss(graph, eps=0.25))
    _assert_same_result(
        batch[1], approximate_two_ecss(graph, eps=0.5, variant="basic")
    )
    _assert_same_result(
        batch[2], approximate_two_ecss(graph, eps=1.0, backend="reference")
    )


def test_simulate_mst_matches_one_shot():
    g = cycle_with_chords(30, 12, seed=7)
    session = SolverSession(g)
    got = session.solve(eps=0.5, simulate_mst=True)
    want = approximate_two_ecss(g, eps=0.5, simulate_mst=True)
    _assert_same_result(got, want)
    assert got.mst_simulation.rounds == want.mst_simulation.rounds


def test_simulate_mst_raises_when_boruvka_disagrees(monkeypatch):
    # A message-level MST that differs from the plan's is a bug to report,
    # not a tree to solve on: fail loudly, as the strict dist pipeline does.
    import dataclasses

    import networkx as nx

    from repro.exceptions import InvariantViolation
    from repro.sim.mst import BoruvkaMST

    real_run = BoruvkaMST.run

    def other_spanning_tree(self, max_phases=None):
        out = real_run(self, max_phases)
        other = sorted(
            tuple(sorted(e))
            for e in nx.maximum_spanning_tree(self.network.graph).edges()
        )
        assert other != out.edges
        return dataclasses.replace(out, edges=other)

    monkeypatch.setattr(BoruvkaMST, "run", other_spanning_tree)
    g = cycle_with_chords(30, 12, seed=7)
    with pytest.raises(InvariantViolation, match="Boruvka MST differs"):
        SolverSession(g).solve(eps=0.5, simulate_mst=True)
    with pytest.raises(InvariantViolation, match="Boruvka MST differs"):
        approximate_two_ecss(g, eps=0.5, simulate_mst=True)


class TestSessionValidation:
    def test_unknown_backend_and_engine(self):
        g = cycle_with_chords(12, 4, seed=1)
        session = SolverSession(g)
        with pytest.raises(UnknownBackendError, match="compute"):
            session.solve(backend="warp-drive")
        with pytest.raises(UnknownBackendError, match="engine"):
            session.solve(engine="quantum")

    def test_failures_require_capability(self):
        g = cycle_with_chords(12, 4, seed=1)
        plan = random_failure_plan(g, p=0.5, max_rounds=3, seed=1)
        with pytest.raises(ValueError, match="failure-injection"):
            SolverSession(g).solve(engine="local", failures=plan)

    def test_plan_lru_eviction(self):
        g = cycle_with_chords(12, 4, seed=1)
        session = SolverSession(g, max_plans=1)
        session.solve(eps=0.5)
        base = session.plan()
        session.solve(eps=0.5, weights=[1.0] * g.number_of_edges())
        session.solve(eps=0.5)  # original weights: evicted, but pinned
        assert session.plan() is base
        assert session.stats()["plans_built"] == 2
        assert len(session._plans) == 1

    def test_evicted_base_plan_is_not_rebuilt(self):
        """Past its LRU eviction the pinned base plan still serves every
        base-weight query, and deltas keep deriving from that same plan."""
        g = cycle_with_chords(30, 10, seed=1)
        session = SolverSession(g, max_plans=2)
        session.solve(eps=0.5)
        base = session.plan()
        m = g.number_of_edges()
        for scale in (2.0, 3.0, 4.0):
            session.solve(eps=0.5, weights=[scale] * m)
        assert session.plan() is base
        assert session.stats()["plans_built"] == 4
        edge = next(iter(g.edges()))
        delta = session.plan(weights_delta={edge: 0.5})
        assert delta._delta_parent is base
        assert session.base_plan() is base

    def test_stats_lru_eviction_accounting(self):
        """stats() counts evictions and keeps evicted plans' build times."""
        g = cycle_with_chords(14, 5, seed=2)
        m = g.number_of_edges()
        session = SolverSession(g, max_plans=1)
        session.solve(eps=0.5)
        session.solve(eps=0.5, weights=[1.0] * m)   # evicts plan 1
        session.solve(eps=0.5, weights=[2.0] * m)   # evicts plan 2
        session.solve(eps=0.5, weights=[2.0] * m)   # hit on the live plan
        stats = session.stats()
        assert stats["solves"] == 4
        assert stats["plans_built"] == stats["plan_misses"] == 3
        assert stats["plan_hits"] == 1
        assert stats["plan_evictions"] == 2
        assert stats["plans_cached"] == 1 and stats["max_plans"] == 1
        # Build times aggregate over evicted plans too: the MST was built
        # three times (once per plan) even though only one plan survives.
        times = stats["build_times_s"]
        assert set(times) >= {"mst", "links", "diameter"}
        assert any(k.startswith("instance:") for k in times)
        live = sum(
            sum(p.build_times.values()) for p in session._plans.values()
        )
        assert sum(times.values()) > live  # evicted seconds were kept

    @pytest.mark.parametrize("first", ["base", "column"])
    def test_derived_handles_build_no_graph(self, first):
        """Validation and the diameter read the base handle's graph only.

        Every column shape (a full column, a sparse delta, a batch query)
        and a k-ECSS solve leave each derived handle without an
        ``nx.Graph``, also when a column is the session's first query.
        """
        graph = make_family_instance("torus", 25, seed=1)
        edges = list(graph.edges())
        session = SolverSession(graph)
        column = [2 * w for w in session.handle.weights]
        if first == "base":
            session.solve(eps=0.5)
        session.solve(eps=0.5, weights=column)
        session.solve(eps=0.5, weights_delta={edges[0]: 9.5})
        session.solve_many([
            {"eps": 0.25, "weights": [w + 1 for w in column]},
            {"eps": 0.5, "weights_delta": {edges[1]: 0.25}},
        ])
        session.solve(eps=0.5, weights=column, k=3)
        derived = [
            plan.handle for plan in session._plans.values()
            if plan is not session.base_plan()
        ]
        assert len(derived) == 4
        for handle in derived:
            assert "graph" not in handle.__dict__

    def test_stats_is_a_snapshot(self):
        g = cycle_with_chords(12, 4, seed=3)
        session = SolverSession(g)
        before = session.stats()
        session.solve(eps=0.5)
        assert before["solves"] == 0  # mutating the session later is fine
        assert session.stats()["solves"] == 1


# ---------------------------------------------------------------------------
# satellite wiring: deprecation, CLI, public API
# ---------------------------------------------------------------------------


def test_cli_unknown_backend_is_one_line_error(capsys, tmp_path):
    from repro.__main__ import main

    rc = main([
        "sweep", "--families", "cycle_chords", "--sizes", "20",
        "--backend", "warp-drive", "--workers", "0",
        "--cache-dir", str(tmp_path / "c"), "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "warp-drive" in err and "reference" in err
    assert "\n" not in err  # one line on stderr, no traceback


def test_cli_unknown_engine_is_one_line_error(capsys, tmp_path):
    from repro.__main__ import main

    rc = main([
        "sweep", "--families", "cycle_chords", "--sizes", "20",
        "--engine", "quantum", "--workers", "0",
        "--cache-dir", str(tmp_path / "c"), "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "quantum" in err and "sim" in err and "local" in err


def test_cli_backends_command(capsys):
    from repro.__main__ import main

    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    for name in ("reference", "fast", "auto", "local", "sim"):
        assert name in out
    assert "failure-injection" in out


def test_top_level_exports():
    assert repro.SolverSession is SolverSession
    assert repro.SolveQuery is SolveQuery
