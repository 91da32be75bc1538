"""The full 2-ECSS pipeline, run message-level on the batched engine.

:func:`distributed_two_ecss` is the measured-rounds counterpart of
:func:`repro.core.tecss.approximate_two_ecss`: every building block the
paper charges rounds for executes as a genuine CONGEST program on one
:class:`~repro.sim.engine.BatchedNetwork` —

1. **MST** — message-level Borůvka (:class:`repro.sim.mst.BoruvkaMST`);
2. **LCA labels** (Section 4.1) —
   :class:`~repro.dist.programs.EulerTourLabels`;
3. **layering** (Section 4.3 / Claim 4.10) — the Horton–Strahler up sweep
   of :func:`~repro.dist.programs.layer_aggregate`;
4. **segment marking** (Section 4.2.1) — the subtree-size sweep of
   :func:`~repro.dist.programs.subtree_size_aggregate`;
5. **every aggregate of the forward / reverse-delete phases** (Claims
   4.5/4.6/4.11) — via :class:`~repro.dist.ops.MeasuredOps`, injected as
   the shared :class:`~repro.core.instance.TAPInstance`'s ``ops``;
6. **global-MIS information gathering** (Section 4.5.1) —
   :class:`~repro.dist.programs.PipelinedGather`, observed through the
   ``hooks`` of :func:`repro.core.reverse.reverse_delete`.

The solver control flow is the *shared* ``repro.core`` code — the pipeline
injects measured primitives underneath it rather than reimplementing it —
so the chosen augmentation is bit-identical to ``backend="reference"`` by
construction, and every distributed value is additionally asserted equal to
its centralized twin before use (strict mode).  With a
:class:`~repro.sim.failures.FailurePlan` the assertions become recorded
mismatch counts: the solver continues on reference values and the run
reports how much of the distributed computation the loss corrupted — a
lossy-CONGEST scenario the centralized path cannot express.

Measured rounds per primitive are compared against the Level-M
:class:`~repro.core.rounds.RoundCostModel` prices via
:func:`repro.dist.accounting.rounds_vs_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.core.rounds import RoundCostModel
from repro.core.tap import assemble_tap_result, solve_virtual_tap
from repro.core.tecss import assemble_two_ecss
from repro.core.result import TwoEcssResult
from repro.dist.accounting import (
    RATIO_BOUND,
    MeasuredPrimitives,
    measure_run,
    note_divergence,
    rounds_vs_model,
)
from repro.dist.ops import MeasuredOps
from repro.dist.programs import (
    EulerTourLabels,
    PipelinedGather,
    SubtreeAggregate,
    layer_aggregate,
    subtree_size_aggregate,
)
from repro.exceptions import InvalidFailurePlanError, SimulationError
from repro.graphs.validation import exact_diameter
from repro.sim.engine import BatchedNetwork
from repro.sim.failures import FailurePlan
from repro.sim.mst import BoruvkaMST

__all__ = ["DistTwoEcssResult", "distributed_two_ecss"]


@dataclass
class DistTwoEcssResult:
    """A measured pipeline run: the (reference-identical) solution plus
    per-primitive engine statistics and their rounds-vs-model comparison."""

    result: TwoEcssResult
    measured: MeasuredPrimitives
    comparison: list[dict]
    n: int
    diameter: int
    strict: bool
    ratio_bound: float = RATIO_BOUND
    boruvka_phases: int = 0
    mismatch_counts: dict[str, int] = field(default_factory=dict)

    @property
    def measured_rounds(self) -> int:
        """Total engine rounds across every measured primitive."""
        return self.measured.total_rounds

    @property
    def priced_rounds(self) -> float:
        """Level-M price of the measured primitive runs (TOTAL row)."""
        return self.comparison[-1]["priced_rounds"]

    @property
    def max_ratio(self) -> float:
        """Worst per-primitive measured/priced ratio."""
        return max(row["ratio"] for row in self.comparison[:-1])

    @property
    def within_bound(self) -> bool:
        """Every per-primitive ratio within the documented constant."""
        return all(row["within_bound"] for row in self.comparison[:-1])

    @property
    def mismatches(self) -> int:
        """Distributed-vs-reference divergences (0 unless lossy)."""
        return sum(self.mismatch_counts.values())

    def rows(self) -> list[dict]:
        """Per-primitive rows for :func:`repro.analysis.tables.format_table`."""
        return [
            {"n": self.n, "D": self.diameter, **row} for row in self.comparison
        ]


class _GatherHooks:
    """Reverse-delete observer running the Sec 4.5.1 gather on the engine."""

    def __init__(self, net, measured, tree, strict: bool) -> None:
        self.net = net
        self.measured = measured
        self.tree = tree
        self.strict = strict

    def on_global_gather(self, ctx, layer: int, candidates) -> None:
        """Convergecast the global-MIS candidates (and their higher petals)
        to the root, message-level, and check the root saw all of them."""
        items = {
            t: [(t, layer, ctx.higher_petal(t))] for t in candidates
        }
        measure_run(
            self.net,
            self.measured,
            "global_mis_gather",
            PipelinedGather(self.tree.parent, self.tree.root, items),
            self.strict,
        )
        gathered = PipelinedGather.results(self.net, self.tree.root)
        expected = sorted(item for lst in items.values() for item in lst)
        if gathered != expected:
            note_divergence(
                self.measured, "global_mis_gather",
                f"layer {layer}: expected {len(expected)} candidates at the "
                f"root, saw {len(gathered)}", self.strict,
                abs(len(expected) - len(gathered)) or 1,
            )


def _failures_in_ids(failures: FailurePlan, handle) -> FailurePlan:
    """``failures`` with its caller-labeled pairs mapped to ``handle``'s ids.

    Every pair must name an edge of the graph: one naming an absent node
    or two non-adjacent nodes raises :class:`InvalidFailurePlanError`
    (the engine consults only pairs that carry messages, so a non-edge
    would fail nothing, silently).
    """
    index, edges = handle.index, handle._pair_index

    def to_ids(u, v):
        """The normalized edge of the caller-labeled pair ``(u, v)``."""
        for label in (u, v):
            if label not in index:
                raise InvalidFailurePlanError(
                    f"failure plan names node {label!r}, which the graph "
                    "does not have"
                )
        pair = (index[u], index[v])
        if pair not in edges:
            raise InvalidFailurePlanError(
                f"failure plan names ({u!r}, {v!r}), which is not an edge "
                "of the graph"
            )
        return pair

    return FailurePlan(
        by_round={
            r: {to_ids(u, v) for u, v in pairs}
            for r, pairs in failures.by_round.items()
        },
        always={to_ids(u, v) for u, v in failures.always},
    )


def distributed_two_ecss(
    graph: nx.Graph | None,
    eps: float = 0.25,
    variant: str = "improved",
    segmented: bool = True,
    validate: bool = True,
    words_per_edge: int = 4,
    scheduler=None,
    failures=None,
    ratio_bound: float = RATIO_BOUND,
    plan=None,
) -> DistTwoEcssResult:
    """Run the whole 2-ECSS pipeline message-level; return measured truth.

    Parameters mirror :func:`repro.core.tecss.approximate_two_ecss` where
    they overlap.  ``failures`` (a
    :class:`~repro.sim.failures.FailurePlan`) switches the run to *lossy*
    mode: distributed-vs-reference divergences are counted instead of
    raised, and the solver continues on the reference values so the
    returned solution stays valid.  The plan names edges in the caller's
    labels (those of ``graph``, or of the graph ``plan`` was built from);
    they are mapped to the engine's normalized ids here, before any
    engine work, and a plan naming a node the graph lacks or a pair that
    is not an edge raises
    :class:`~repro.exceptions.InvalidFailurePlanError` (a
    ``ValueError``).  ``ratio_bound`` is the documented constant factor
    for the rounds-vs-model comparison rows.

    ``plan`` (a :class:`repro.runtime.plan.SolverPlan`) supplies the
    cached centralized artifacts — validation, normalization, MST,
    virtual-graph instance, diameter — so a
    :class:`~repro.runtime.session.SolverSession` solving many failure
    scenarios on one topology skips their reconstruction; every
    message-level program still runs per call (measured rounds are the
    point).  With ``plan=None`` the pipeline builds a fresh single-use
    plan from ``graph``; the centralized reference values are identical
    either way.

    The returned :class:`DistTwoEcssResult` carries a solution
    **bit-identical** to ``approximate_two_ecss(graph, ...,
    backend="reference")`` — same edges, weight, and certified ratio —
    which the differential suite in ``tests/test_dist_pipeline.py`` holds
    across families, sizes, and seeds.
    """
    if plan is None:
        if graph is None:
            raise ValueError(
                "distributed_two_ecss needs a graph or a plan; got neither"
            )
        from repro.runtime.plan import SolverPlan

        plan = SolverPlan.for_graph(graph)
    g, nodes = plan.g, plan.nodes

    strict = failures is None
    if failures is not None:
        failures = _failures_in_ids(failures, plan.handle)
    net = BatchedNetwork(
        g, words_per_edge, scheduler=scheduler, failures=failures
    )
    measured = MeasuredPrimitives()

    # 1. MST: message-level Borůvka, cross-checked against the centralized
    # MST (identical under the lexicographic tie-break).
    tree, mst_edges = plan.tree, plan.mst_edges
    try:
        outcome = BoruvkaMST(net).run()
    except SimulationError:
        if strict:
            raise
        outcome = None
        measured.note_mismatch("mst")
    boruvka_phases = 0
    if outcome is not None:
        measured.add("mst", outcome.stats)
        boruvka_phases = outcome.phases
        if outcome.edges != mst_edges:
            note_divergence(
                measured, "mst",
                "Boruvka MST differs from the centralized MST", strict,
            )

    # 2. LCA / ancestry labels (Section 4.1).
    measure_run(
        net, measured, "lca_labels",
        EulerTourLabels(tree.parent, tree.root), strict,
    )
    tin, tout = EulerTourLabels.results(net)
    bad = sum(
        1
        for v in range(tree.n)
        if tin[v] != tree.tin[v] or tout[v] != tree.tout[v]
    )
    if bad:
        note_divergence(
            measured, "lca_labels",
            f"Euler labels differ at {bad} vertices", strict, bad,
        )

    # 3. The shared instance: same tree, same virtual edges, same layering
    # and segments as the centralized solver — with measured ops injected.
    # A *private* copy of the plan's instance, because the ops injection
    # below must not leak this run's network into later plan reuses.
    inst = plan.private_instance("reference")
    ref_ops = inst.ops  # build the reference path operations first
    inst.__dict__["ops"] = MeasuredOps(ref_ops, net, measured, strict=strict)

    # 4. Layering (Section 4.3): one Horton–Strahler up sweep computes all
    # layer numbers; compared against the shared Layering object.
    measure_run(
        net, measured, "layering",
        layer_aggregate(tree.parent, tree.root), strict,
    )
    layers = SubtreeAggregate.results(net)
    bad = sum(
        1
        for v in tree.tree_edges()
        if layers[v] is None or int(layers[v]) != inst.layering.layer[v]
    )
    if bad:
        note_divergence(
            measured, "layering",
            f"layer numbers differ at {bad} tree edges", strict, bad,
        )

    # 5. Segment marking (Section 4.2.1): subtree sizes >= s.
    measure_run(
        net, measured, "segments_build",
        subtree_size_aggregate(tree.parent, tree.root), strict,
    )
    sizes = SubtreeAggregate.results(net)
    ref_sizes = tree.subtree_sizes()
    bad = sum(
        1
        for v in range(tree.n)
        if sizes[v] is None or int(sizes[v]) != ref_sizes[v]
    )
    if bad:
        note_divergence(
            measured, "segments_build",
            f"subtree sizes differ at {bad} vertices", strict, bad,
        )

    # 6. Solve on the shared code path; aggregates and the global-MIS
    # gather run message-level underneath it.
    hooks = _GatherHooks(net, measured, tree, strict)
    fwd, rev = solve_virtual_tap(
        inst,
        eps=eps,
        variant=variant,
        segmented=segmented,
        validate=validate,
        backend="reference",
        hooks=hooks,
    )
    tap = assemble_tap_result(
        inst, fwd, rev, eps=eps, variant=variant, segmented=segmented,
        validate=validate, backend="reference",
    )
    result = assemble_two_ecss(
        g, nodes, mst_edges, tap, validate=validate, diameter=plan.diameter,
        tree=tree,
    )

    # 7. Price the measured runs with the Level-M model (the result's
    # diameter is -1 above its size cutoff; the model needs the true D).
    diameter = (
        result.diameter if result.diameter >= 0
        else exact_diameter(plan.handle.n, plan.handle.edges)
    )
    model = RoundCostModel(g.number_of_nodes(), diameter)
    pricing = {
        # One sweep computes every layer; Claim 4.10 prices them per layer.
        "layering": model.cost_of("layering_layer") * inst.layering.num_layers,
    }
    comparison = rounds_vs_model(measured, model, pricing, bound=ratio_bound)

    return DistTwoEcssResult(
        result=result,
        measured=measured,
        comparison=comparison,
        n=g.number_of_nodes(),
        diameter=diameter,
        strict=strict,
        ratio_bound=ratio_bound,
        boruvka_phases=boruvka_phases,
        mismatch_counts=dict(measured.mismatches),
    )
