"""Measured-rounds accounting for the distributed 2-ECSS pipeline.

:class:`MeasuredPrimitives` collects one :class:`~repro.sim.engine.RunStats`
per message-level primitive run (MST, labeling, aggregates, gathers, ...)
and :func:`rounds_vs_model` compares the totals against the Level-M
:class:`~repro.core.rounds.RoundCostModel` prices — the cross-check that
turns the reported round complexity from a formula into a measurement.

The comparison is *per primitive run*: a primitive measured over ``runs``
engine executions is priced at ``runs x price(one invocation)``, and the
ratio ``measured / priced`` must stay within a documented constant factor
(:data:`RATIO_BOUND`) on every tested family — asserted by
``tests/test_dist_rounds.py`` and exported as a JSON artifact by
``benchmarks/bench_dist_rounds.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rounds import RoundCostModel
from repro.sim.engine import RunStats

__all__ = [
    "RATIO_BOUND",
    "MeasuredPrimitives",
    "PrimitiveMeasurement",
    "measure_run",
    "note_divergence",
    "rounds_vs_model",
]

#: Documented constant factor: measured engine rounds for one primitive run
#: stay below ``RATIO_BOUND x`` the Level-M price of one invocation on every
#: tested family/size (the price drops O() constants, so ratios above 1 are
#: expected for e.g. tall-MST families; see docs/ARCHITECTURE.md).
RATIO_BOUND = 8.0


@dataclass
class PrimitiveMeasurement:
    """Aggregated engine statistics for one primitive across its runs."""

    runs: int = 0
    rounds: int = 0
    messages: int = 0
    max_words: int = 0

    def add(self, stats: RunStats) -> None:
        """Fold one engine run's stats into the totals."""
        self.runs += 1
        self.rounds += stats.rounds
        self.messages += stats.messages
        self.max_words = max(self.max_words, stats.max_words)


@dataclass
class MeasuredPrimitives:
    """Per-primitive measured totals plus lossy-mode divergence counters."""

    by_name: dict[str, PrimitiveMeasurement] = field(default_factory=dict)
    mismatches: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, stats: RunStats) -> None:
        """Record one engine run under primitive ``name``."""
        self.by_name.setdefault(name, PrimitiveMeasurement()).add(stats)

    def note_mismatch(self, name: str, count: int = 1) -> None:
        """Count a distributed-vs-reference divergence (lossy runs only)."""
        self.mismatches[name] = self.mismatches.get(name, 0) + count

    @property
    def total_rounds(self) -> int:
        """Measured rounds summed over every primitive."""
        return sum(m.rounds for m in self.by_name.values())

    @property
    def total_mismatches(self) -> int:
        """Total recorded divergences (0 on failure-free runs)."""
        return sum(self.mismatches.values())


def measure_run(net, measured: MeasuredPrimitives, name: str, program, strict: bool) -> RunStats:
    """Run one program on ``net`` and record its stats under ``name``.

    The single measurement discipline shared by the pipeline's setup
    phases and :class:`repro.dist.ops.MeasuredOps`: state is reset, the
    engine runs to quiescence, the stats land in the ledger, and in
    strict mode a non-quiescent run (round-limit hit) fails loudly.
    """
    from repro.exceptions import SimulationError

    net.reset_state()
    stats = net.run(program)
    measured.add(name, stats)
    if strict and not stats.quiescent:
        raise SimulationError(
            f"distributed {name} did not quiesce within the round limit"
        )
    return stats


def note_divergence(
    measured: MeasuredPrimitives,
    name: str,
    detail: str,
    strict: bool,
    count: int = 1,
) -> None:
    """Handle one distributed-vs-reference divergence.

    The single lossy-mode discipline shared by the pipeline's setup
    checks, :class:`repro.dist.ops.MeasuredOps`, and the gather hook:
    strict runs fail loudly with the detail, lossy runs count the
    divergence in the ledger and continue.
    """
    if strict:
        from repro.exceptions import InvariantViolation

        raise InvariantViolation(
            f"distributed {name} diverged from reference: {detail}"
        )
    measured.note_mismatch(name, count)


#: Measured primitive name -> Level-M primitive it is priced as.  The
#: ``layering`` sweep computes *all* layers in one run; its default price
#: here is a single Claim 4.10 layer (conservative), and the pipeline
#: overrides it with ``num_layers x layering_layer`` via the ``pricing``
#: argument of :func:`rounds_vs_model`.
PRICED_AS = {
    "mst": "mst",
    "lca_labels": "lca_labels",
    "segments_build": "segments_build",
    "aggregate": "aggregate",
    "global_mis_gather": "global_mis_gather",
    "layering": "layering_layer",
}


def rounds_vs_model(
    measured: MeasuredPrimitives,
    model: RoundCostModel,
    pricing: dict[str, float] | None = None,
    bound: float = RATIO_BOUND,
) -> list[dict]:
    """Rows comparing measured rounds per primitive to Level-M prices.

    ``pricing`` overrides the per-run price of a measured name (used for
    the one-sweep layering).  Each row carries the primitive, its run
    count, measured/priced rounds, the ratio, and whether the ratio stays
    within ``bound``; a TOTAL row sums both sides.
    """
    pricing = pricing or {}
    rows: list[dict] = []
    total_measured = 0
    total_priced = 0.0
    for name in sorted(measured.by_name):
        m = measured.by_name[name]
        if name in pricing:
            per_run = pricing[name]
        elif name in PRICED_AS:
            per_run = model.cost_of(PRICED_AS[name])
        else:
            raise KeyError(
                f"no price mapping for measured primitive {name!r}; "
                f"pass a pricing override"
            )
        priced = per_run * m.runs
        ratio = m.rounds / priced if priced > 0 else float("inf")
        total_measured += m.rounds
        total_priced += priced
        rows.append(
            {
                "primitive": name,
                "runs": m.runs,
                "measured_rounds": m.rounds,
                "priced_rounds": priced,
                "ratio": ratio,
                "within_bound": ratio <= bound,
            }
        )
    rows.append(
        {
            "primitive": "TOTAL",
            "runs": sum(m.runs for m in measured.by_name.values()),
            "measured_rounds": total_measured,
            "priced_rounds": total_priced,
            "ratio": total_measured / total_priced if total_priced else float("inf"),
            "within_bound": (
                total_measured <= bound * total_priced if total_priced else False
            ),
        }
    )
    return rows
