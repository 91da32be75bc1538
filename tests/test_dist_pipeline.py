"""Differential suite: the message-level pipeline vs ``backend="reference"``.

The acceptance bar of the dist layer: across every graph family, size, and
seed in the grid below (>= 100 cases), :func:`repro.dist.distributed_two_ecss`
must produce a **bit-identical** solution — same chosen edges, same weight,
same certified ratio — to the centralized reference solver, while every
primitive actually executes as messages on the batched engine.  Lossy-mode
composition (FailurePlan / ScenarioRunner) is covered at the end.
"""

from __future__ import annotations

import pytest

from repro.core.tecss import approximate_two_ecss
from repro.dist import dist_specs, distributed_two_ecss
from repro.graphs.families import make_family_instance
from repro.sim import FailurePlan, ScenarioRunner, random_failure_plan

FAMILIES = ("cycle_chords", "erdos_renyi", "grid", "theta", "hub_cycle", "caterpillar")
SIZES = (18, 30)
SEEDS = tuple(range(1, 10))

GRID = [
    (family, n, seed) for family in FAMILIES for n in SIZES for seed in SEEDS
]
assert len(GRID) >= 100  # the differential suite's documented floor


@pytest.mark.parametrize("family,n,seed", GRID)
def test_pipeline_identical_to_reference(family, n, seed):
    graph = make_family_instance(family, n, seed=seed)
    dist = distributed_two_ecss(graph, eps=0.5)
    ref = approximate_two_ecss(graph, eps=0.5, backend="reference")
    assert dist.result.edges == ref.edges
    assert dist.result.weight == ref.weight
    assert dist.result.certified_ratio == ref.certified_ratio
    assert dist.result.augmentation.virtual_eids == ref.augmentation.virtual_eids
    # Strict mode: every distributed value matched its centralized twin.
    assert dist.strict and dist.mismatches == 0
    # Every primitive genuinely ran on the engine.
    assert dist.measured.by_name["mst"].runs == 1
    assert dist.measured.by_name["aggregate"].runs > 0
    assert dist.measured_rounds > 0


@pytest.mark.parametrize("variant", ["improved", "basic"])
@pytest.mark.parametrize("segmented", [True, False])
def test_pipeline_variants_match_reference(variant, segmented):
    graph = make_family_instance("grid", 30, seed=4)
    dist = distributed_two_ecss(graph, eps=0.25, variant=variant, segmented=segmented)
    ref = approximate_two_ecss(
        graph, eps=0.25, variant=variant, segmented=segmented, backend="reference"
    )
    assert dist.result.edges == ref.edges
    assert dist.result.weight == ref.weight
    assert dist.result.guarantee == ref.guarantee


def test_pipeline_matches_fast_backend_too():
    # fast and reference are bit-identical (PR 2), so the dist pipeline
    # transitively matches the vectorized kernels as well.
    graph = make_family_instance("erdos_renyi", 40, seed=7)
    dist = distributed_two_ecss(graph, eps=0.5)
    fast = approximate_two_ecss(graph, eps=0.5, backend="fast")
    assert dist.result.edges == fast.edges
    assert dist.result.weight == fast.weight


def test_pipeline_counts_solver_primitives():
    # The solver's own PrimitiveLog and the measured ledger agree on the
    # setup primitives; measured aggregate runs are at least the aggregates
    # the forward/reverse phases logged (certificates add a few more).
    graph = make_family_instance("cycle_chords", 30, seed=2)
    dist = distributed_two_ecss(graph, eps=0.5)
    log = dist.result.augmentation.log
    assert dist.measured.by_name["lca_labels"].runs == log["lca_labels"]
    assert dist.measured.by_name["aggregate"].runs >= log["aggregate"]
    if log["global_mis_gather"]:
        assert (
            dist.measured.by_name["global_mis_gather"].runs
            == log["global_mis_gather"]
        )


def test_pipeline_comparison_rows_are_priced():
    graph = make_family_instance("grid", 30, seed=1)
    dist = distributed_two_ecss(graph, eps=0.5)
    rows = dist.rows()
    assert rows[-1]["primitive"] == "TOTAL"
    for row in rows:
        assert row["priced_rounds"] > 0
        assert row["measured_rounds"] >= 0
    assert dist.priced_rounds == pytest.approx(
        sum(r["priced_rounds"] for r in rows[:-1])
    )
    # The report renderer consumes the same rows (benchmarks write this).
    from repro.analysis.tables import rounds_vs_model_table

    table = rounds_vs_model_table([dist])
    assert "TOTAL" in table and "measured_rounds" in table
    assert table.count("\n") >= len(rows) + 2


class TestLossyComposition:
    """FailurePlan / ScenarioRunner composition — the scenarios only the
    message-level pipeline can express."""

    def test_lossy_run_counts_mismatches_and_still_solves(self):
        graph = make_family_instance("grid", 36, seed=1)
        plan = random_failure_plan(graph, p=0.15, max_rounds=40, seed=3)
        dist = distributed_two_ecss(graph, eps=0.5, failures=plan)
        assert not dist.strict
        assert dist.mismatches > 0  # loss corrupted distributed values...
        ref = approximate_two_ecss(graph, eps=0.5, backend="reference")
        assert dist.result.edges == ref.edges  # ...but the solution holds
        assert dist.result.weight == ref.weight

    def test_lossy_plan_is_not_mutated_by_the_pipeline(self):
        import copy

        graph = make_family_instance("cycle_chords", 24, seed=2)
        plan = random_failure_plan(graph, p=0.1, max_rounds=30, seed=1)
        before = copy.deepcopy(plan)
        distributed_two_ecss(graph, eps=0.5, failures=plan)
        assert plan == before

    def test_severed_tree_edge_corrupts_setup_sweeps(self):
        graph = make_family_instance("grid", 36, seed=1)
        clean = distributed_two_ecss(graph, eps=0.5)
        u, v = clean.result.mst_edges[0]
        plan = FailurePlan().fail(u, v)
        dist = distributed_two_ecss(graph, eps=0.5, failures=plan)
        # A permanently dead MST edge starves every sweep that crosses it.
        assert dist.mismatch_counts.get("lca_labels", 0) > 0
        assert dist.result.weight == clean.result.weight

    def test_scenario_runner_sweeps_dist_specs(self):
        runner = ScenarioRunner()
        results = runner.sweep(
            families=["cycle_chords"], sizes=[24], seeds=[1, 2],
            specs=dist_specs(),
        )
        assert len(results) == 2 * len(dist_specs())
        for res in results:
            assert res.stats.quiescent
            assert res.stats.dropped == 0
            assert res.within_thm11
            row = res.row()
            assert row["program"] in {
                "euler_labels", "layering_sweep", "subtree_sizes", "ancestor_sums"
            }

    def test_scenario_runner_dist_specs_under_failures(self):
        graph = make_family_instance("cycle_chords", 24, seed=1)
        plan = random_failure_plan(graph, p=0.3, max_rounds=10, seed=2)
        runner = ScenarioRunner(failures=plan)
        spec = next(s for s in dist_specs() if s.name == "euler_labels")
        res = runner.run_one(graph, spec, family="cycle_chords", seed=1)
        assert res.stats.quiescent  # lossy sweeps stall but still terminate
        assert res.stats.dropped > 0
