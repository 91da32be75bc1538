"""A TreePathOps facade that executes every aggregate message-level.

:class:`MeasuredOps` wraps the reference
:class:`~repro.trees.pathops.TreePathOps` of a
:class:`~repro.core.instance.TAPInstance` and is injected in its place by
:func:`repro.dist.pipeline.distributed_two_ecss`.  The solver code paths
(:func:`repro.core.forward.forward_phase`, the reverse-delete epoch
machinery, the runtime certificates) are **shared and unchanged** — they
simply call ``inst.ops`` — but every batch aggregate now *also* runs as a
genuine message-level program on the batched CONGEST engine:

* :meth:`MeasuredOps.ancestor_sums` runs an
  :class:`~repro.dist.programs.AncestorSumDown` sweep,
* :meth:`MeasuredOps.chmin_over_paths` runs a
  :class:`~repro.dist.programs.PipelinedChminUp`,
* :meth:`MeasuredOps.add_over_paths` (and therefore ``coverage_counts``)
  runs a :class:`~repro.dist.programs.SubtreeAggregate` over the locally
  scattered path deltas,

and the engine's measured rounds land in a
:class:`~repro.dist.accounting.MeasuredPrimitives` ledger under the
``aggregate`` primitive.  In *strict* mode (no failure injection) the
distributed values are asserted equal to the reference values before the
reference result is returned — so the solver's decisions are provably the
values that crossed the wire, and the final augmentation cannot drift from
``backend="reference"``.  Under failure injection the assertions become
recorded mismatch counts and the solver continues on the reference values,
which is what makes lossy-CONGEST scenarios expressible at all.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.dist.accounting import MeasuredPrimitives, measure_run, note_divergence
from repro.dist.programs import (
    AncestorSumDown,
    PipelinedChminUp,
    SubtreeAggregate,
)
from repro.exceptions import SimulationError
from repro.sim.engine import RunStats
from repro.trees.pathops import TreePathOps
from repro.trees.segtree import INF

__all__ = ["MeasuredOps"]


class MeasuredOps:
    """Drop-in ``inst.ops`` that mirrors every aggregate onto the engine.

    Parameters
    ----------
    ref:
        The reference path operations (results are authoritative; the
        distributed runs are asserted against them in strict mode).
    net:
        The :class:`~repro.sim.engine.BatchedNetwork` primitives run on
        (one network for the whole pipeline; state is reset per run).
    measured:
        The ledger measured :class:`~repro.sim.engine.RunStats` land in.
    strict:
        When true (no failure injection) any distributed-vs-reference
        divergence raises :class:`~repro.exceptions.InvariantViolation`;
        when false it is counted in ``measured.mismatches``.
    """

    def __init__(
        self,
        ref: TreePathOps,
        net,
        measured: MeasuredPrimitives,
        strict: bool = True,
    ) -> None:
        self._ref = ref
        self._net = net
        self._measured = measured
        self._strict = strict
        self.tree = ref.tree
        self.hld = ref.hld

    # -- engine plumbing ----------------------------------------------------

    def _run(self, program, name: str) -> RunStats:
        """Run one program on the shared network and record its stats."""
        return measure_run(self._net, self._measured, name, program, self._strict)

    def _diverge(self, name: str, detail: str, count: int = 1) -> None:
        """Fail loudly in strict mode; count the divergence otherwise."""
        note_divergence(self._measured, name, detail, self._strict, count)

    # -- measured aggregates ------------------------------------------------

    def ancestor_sums(self, values) -> list[float]:
        """Root-path prefix sums, run as a top-down sweep on the engine."""
        ref = self._ref.ancestor_sums(values)
        tree = self.tree
        self._run(
            AncestorSumDown(tree.parent, tree.root, values), "aggregate"
        )
        dist = AncestorSumDown.results(self._net)
        bad = sum(1 for v in range(tree.n) if dist[v] != ref[v])
        if bad:
            self._diverge("ancestor_sums", f"{bad} vertices differ", bad)
        return ref

    def chmin_over_paths(
        self, updates: Iterable[tuple[int, int, Any]], identity: Any = INF
    ):
        """Per-tree-edge minima over covering paths, pipelined up the tree."""
        updates = list(updates)
        ref = self._ref.chmin_over_paths(updates, identity)
        tree = self.tree
        wrapped = [
            (dec, anc, value if isinstance(value, tuple) else (value,))
            for dec, anc, value in updates
        ]
        budget = self._net.words_per_edge
        for _, _, value in wrapped:
            if 1 + len(value) > budget:
                raise SimulationError(
                    f"chmin item needs {1 + len(value)} words; the CONGEST "
                    f"budget is {budget}"
                )
        self._run(
            PipelinedChminUp(tree.parent, tree.depth, wrapped), "aggregate"
        )
        dist = PipelinedChminUp.results(self._net, identity)
        bad = 0
        for t in tree.tree_edges():
            ref_val = ref.get(t)
            if ref_val == ref.identity:
                ref_val = None
            elif not isinstance(ref_val, tuple):
                ref_val = (ref_val,)
            dist_val = dist.get(t)
            if dist_val == dist.identity:
                dist_val = None
            if dist_val != ref_val:
                bad += 1
        if bad:
            self._diverge("chmin_over_paths", f"{bad} tree edges differ", bad)
        return ref

    def add_over_paths(self, updates: Iterable[tuple[int, int, float]]) -> list[float]:
        """Per-tree-edge delta totals: local scatter + one up sweep."""
        updates = list(updates)
        ref = self._ref.add_over_paths(updates)
        tree = self.tree
        acc0 = [0.0] * tree.n
        for dec, anc, delta in updates:
            acc0[dec] += delta
            acc0[anc] -= delta
        self._run(
            SubtreeAggregate(
                tree.parent,
                tree.root,
                start=lambda v: acc0[v],
                absorb=lambda acc, value: acc + value,
                finish=lambda v, acc: acc,
            ),
            "aggregate",
        )
        dist = SubtreeAggregate.results(self._net)
        bad = sum(
            1
            for v in range(tree.n)
            if dist[v] is None
            or not math.isclose(dist[v], ref[v], rel_tol=1e-9, abs_tol=1e-9)
        )
        if bad:
            self._diverge("add_over_paths", f"{bad} vertices differ", bad)
        return ref

    def coverage_counts(self, paths: Iterable[tuple[int, int]]) -> list[int]:
        """Coverage counts via the (measured) difference-trick aggregate."""
        counts = self.add_over_paths((dec, anc, 1.0) for dec, anc in paths)
        return [int(round(c)) for c in counts]

    # -- local operations (no communication) --------------------------------

    @staticmethod
    def path_sum(cum, dec: int, anc: int) -> float:
        """Difference of two root-path sums (local arithmetic)."""
        return TreePathOps.path_sum(cum, dec, anc)

    def path_sums(self, values, paths) -> list[float]:
        """Batch path sums: one measured sweep plus local differences."""
        cum = self.ancestor_sums(values)
        return [cum[dec] - cum[anc] for dec, anc in paths]

    def make_coverage_counter(self):
        """Reference incremental counter (locally maintained Y-coverage).

        In the distributed algorithm every tree edge observes the petals
        added near it and maintains its own coverage bit; the per-iteration
        coverage *aggregates* are measured where the solver performs them
        (``coverage_counts`` / ``add_over_paths``), while the incremental
        point updates are local state and cost no extra rounds.
        """
        return self._ref.make_coverage_counter()
