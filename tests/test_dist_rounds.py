"""Round-complexity shape regression: measured rounds track Level-M prices.

For every tested family and size, the engine rounds measured for each
primitive of the distributed pipeline must stay within fixed multiplicative
bounds of the :class:`~repro.core.rounds.RoundCostModel` price for the same
primitive.  The bounds are deliberately loose constants — the model drops
O() factors — but they are *fixed*: a future engine edit that inflates
rounds (or a cost-model edit that deflates prices) by more than a constant
breaks this suite instead of silently drifting.
"""

from __future__ import annotations

import pytest

from repro.core.rounds import RoundCostModel
from repro.dist import RATIO_BOUND, dist_specs, distributed_two_ecss
from repro.graphs.families import make_family_instance
from repro.sim import ScenarioRunner

#: Fixed regression bounds on measured/priced per primitive run.  The upper
#: bound is the documented constant of repro.dist.accounting; the lower
#: bound catches a cost model accidentally inflated relative to reality.
LOW, HIGH = 0.02, RATIO_BOUND

FAMILIES = ("cycle_chords", "erdos_renyi", "grid", "theta", "hub_cycle",
            "caterpillar", "torus", "lollipop")
SIZES = (24, 60)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", SIZES)
def test_measured_rounds_track_model_prices(family, n):
    graph = make_family_instance(family, n, seed=1)
    dist = distributed_two_ecss(graph, eps=0.5)
    for row in dist.comparison[:-1]:
        ratio = row["ratio"]
        assert LOW <= ratio <= HIGH, (
            f"{family}/n={n}: primitive {row['primitive']} measured "
            f"{row['measured_rounds']} rounds vs price "
            f"{row['priced_rounds']:.1f} (ratio {ratio:.2f} outside "
            f"[{LOW}, {HIGH}])"
        )
    assert dist.within_bound
    # The TOTAL row aggregates consistently.
    total = dist.comparison[-1]
    assert total["measured_rounds"] == dist.measured_rounds
    assert total["ratio"] <= HIGH


@pytest.mark.parametrize("family", ("cycle_chords", "grid", "hub_cycle"))
def test_primitive_specs_track_prices_via_scenario_runner(family):
    # The standalone primitive sweeps (ScenarioRunner path) obey the same
    # constant-factor envelope as the pipeline's in-context runs.
    runner = ScenarioRunner()
    results = runner.sweep(
        families=[family], sizes=[40], seeds=[1, 2], specs=dist_specs()
    )
    for res in results:
        assert res.stats.quiescent
        ratio = res.stats.rounds / res.priced_rounds
        assert ratio <= HIGH, (
            f"{family}: spec {res.program} measured {res.stats.rounds} vs "
            f"priced {res.priced_rounds:.1f}"
        )


def test_theorem_bound_dominates_measured_pipeline_rounds():
    # Theorem 1.1's (D + sqrt n) log^2 n / eps envelope must sit above the
    # measured total for the whole pipeline on every family tested here.
    for family in ("cycle_chords", "grid", "erdos_renyi"):
        graph = make_family_instance(family, 40, seed=3)
        dist = distributed_two_ecss(graph, eps=0.5)
        model = RoundCostModel(dist.n, dist.diameter)
        assert dist.measured_rounds <= model.theorem_1_1_bound(0.5) * HIGH


def test_rounds_vs_model_reprices_a_measured_ledger_standalone():
    # Public API: a consumer can re-price a pipeline ledger without knowing
    # the pipeline's internal pricing override (layering defaults to one
    # Claim 4.10 layer per run; unknown names fail with a clear error).
    from repro.dist import rounds_vs_model

    graph = make_family_instance("grid", 30, seed=1)
    dist = distributed_two_ecss(graph, eps=0.5)
    model = RoundCostModel(dist.n, dist.diameter)
    rows = rounds_vs_model(dist.measured, model)
    assert rows[-1]["primitive"] == "TOTAL"
    assert {r["primitive"] for r in rows[:-1]} == set(dist.measured.by_name)
    from repro.dist import MeasuredPrimitives
    from repro.sim import RunStats

    bogus = MeasuredPrimitives()
    bogus.add("teleportation", RunStats(rounds=1))
    with pytest.raises(KeyError, match="teleportation"):
        rounds_vs_model(bogus, model)


def test_ratio_bound_is_documented_constant():
    # The bound the tests enforce is the one the docs/artifact export.
    assert RATIO_BOUND == 8.0
