"""ScenarioRunner: sweep graph families × sizes × seeds through the engine.

Each run produces a :class:`ScenarioResult` that pairs the *measured*
:class:`~repro.sim.engine.RunStats` with the *priced* rounds of the
Level-M :class:`~repro.core.rounds.RoundCostModel`: the program spec
declares which paper primitives one run of it corresponds to (e.g. one BFS
is at most one tree aggregate, Claim 4.5/4.6), the runner builds the
matching :class:`~repro.core.rounds.PrimitiveLog`, and the result records
whether the measured rounds stay under the Level-M price and under the
Theorem 1.1 bound shape.  This is the cross-check that keeps the cost model
honest at scale — the per-instance generalization of
``tests/test_model_vs_cost.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import networkx as nx

from repro.core.rounds import PrimitiveLog, RoundCostModel
from repro.graphs.families import make_family_instance
from repro.graphs.validation import exact_diameter
from repro.sim.engine import BatchedNetwork, NodeProgram, RunStats
from repro.sim.programs import DistributedBFS, FloodMin

__all__ = ["ProgramSpec", "ScenarioResult", "ScenarioRunner", "default_specs"]


@dataclass(frozen=True)
class ProgramSpec:
    """A named node program plus its Level-M price declaration.

    ``build`` maps a prepared graph (0..n-1 nodes, weighted) to a fresh
    program instance; ``primitives`` maps
    :class:`~repro.core.rounds.RoundCostModel` primitive names to how many
    invocations one run of the program is charged as.
    """

    name: str
    build: Callable[[nx.Graph], NodeProgram]
    primitives: Mapping[str, int]


def _flood_min(graph: nx.Graph) -> FloodMin:
    return FloodMin(
        values=[(v,) for v in range(graph.number_of_nodes())],
        active={v: sorted(graph.neighbors(v)) for v in graph.nodes()},
    )


def default_specs() -> tuple[ProgramSpec, ...]:
    """BFS and flood-min: both run within one aggregate's price (D+sqrt n)."""
    return (
        ProgramSpec("bfs", lambda g: DistributedBFS(0), {"aggregate": 1}),
        ProgramSpec("flood_min", _flood_min, {"aggregate": 1}),
    )


@dataclass
class ScenarioResult:
    """One instance × program run: measured stats plus Level-M cross-checks.

    ``within_price`` compares the measured rounds against the Level-M price
    of the spec's declared primitives; ``within_thm11`` against the
    Theorem 1.1 bound shape — both must hold for the cost model to be
    honest on this instance.
    """

    family: str
    n: int
    seed: int
    program: str
    stats: RunStats
    diameter: int
    priced_rounds: float
    thm11_bound: float
    within_price: bool
    within_thm11: bool
    log: PrimitiveLog = field(repr=False, default_factory=PrimitiveLog)

    def row(self) -> dict:
        """Flatten for :func:`repro.analysis.tables.format_table`."""
        return {
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "program": self.program,
            "D": self.diameter,
            "rounds": self.stats.rounds,
            "messages": self.stats.messages,
            "max_words": self.stats.max_words,
            "quiescent": self.stats.quiescent,
            "dropped": self.stats.dropped,
            "priced": self.priced_rounds,
            "thm11": self.thm11_bound,
            "within_price": self.within_price,
            "within_thm11": self.within_thm11,
        }


class ScenarioRunner:
    """Runs program specs over instances and cross-checks the cost model.

    Every instance runs on a fresh
    :class:`~repro.sim.engine.BatchedNetwork` built with the runner's
    ``words_per_edge``, ``scheduler`` and ``failures``.  ``failures`` (an
    immutable :class:`~repro.sim.failures.FailurePlan`) is how the
    dist-layer primitive specs (:func:`repro.dist.specs.dist_specs`) are
    swept under lossy-CONGEST conditions; per-run drop counts land in
    each result's ``stats.dropped``.
    """

    def __init__(
        self,
        words_per_edge: int = 4,
        eps: float = 0.5,
        scheduler=None,
        failures=None,
    ) -> None:
        self.words_per_edge = words_per_edge
        self.eps = eps
        self.scheduler = scheduler
        self.failures = failures

    def run_one(
        self,
        graph: nx.Graph,
        spec: ProgramSpec,
        family: str = "custom",
        seed: int = 0,
        max_rounds: int | None = None,
    ) -> ScenarioResult:
        """Run one program spec on one prepared graph and price the rounds.

        Missing edge weights default to 1.0; the measured
        :class:`~repro.sim.engine.RunStats` are compared against the
        spec's declared primitive price and the Theorem 1.1 bound.
        """
        for _, _, data in graph.edges(data=True):
            data.setdefault("weight", 1.0)
        net = BatchedNetwork(
            graph, self.words_per_edge,
            scheduler=self.scheduler, failures=self.failures,
        )
        stats = net.run(spec.build(graph), max_rounds=max_rounds)
        diameter = exact_diameter(net.n, graph.edges())
        model = RoundCostModel(net.n, diameter)
        log = PrimitiveLog()
        for primitive, count in spec.primitives.items():
            log.record(primitive, count)
        priced = model.total_rounds(log)
        bound = model.theorem_1_1_bound(self.eps)
        return ScenarioResult(
            family=family,
            n=net.n,
            seed=seed,
            program=spec.name,
            stats=stats,
            diameter=diameter,
            priced_rounds=priced,
            thm11_bound=bound,
            within_price=stats.rounds <= priced,
            within_thm11=stats.rounds <= bound,
            log=log,
        )

    def sweep(
        self,
        families: Iterable[str],
        sizes: Iterable[int],
        seeds: Iterable[int],
        specs: Sequence[ProgramSpec] | None = None,
    ) -> list[ScenarioResult]:
        """Cross every family × size × seed with every spec; collect results.

        For parallel *solver* sweeps with caching see
        :func:`repro.analysis.sweep.run_sweep`; this in-process sweep is
        about engine behavior (rounds/messages vs the cost model).
        """
        specs = tuple(specs) if specs is not None else default_specs()
        results = []
        for family in families:
            for n in sizes:
                for seed in seeds:
                    graph = make_family_instance(family, n, seed=seed)
                    for spec in specs:
                        results.append(
                            self.run_one(graph, spec, family=family, seed=seed)
                        )
        return results
