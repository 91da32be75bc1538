"""SolverSession: many queries, one plan — the batch-solve entry point.

A session binds one :class:`~repro.runtime.handle.GraphHandle` to a small
LRU cache of :class:`~repro.runtime.plan.SolverPlan` objects (one per
weight assignment) and exposes:

* :meth:`SolverSession.solve` — one 2-ECSS query (``eps``, ``variant``,
  compute backend, engine, optional weight reassignment, optional failure
  plan) — or a k-ECSS query via ``k > 2`` (:mod:`repro.core.k_ecss`),
  gated on the engine's ``k-ecss`` capability — reusing every plan
  artifact a previous solve already built;
* :meth:`SolverSession.solve_many` — the one batch entry point: a list
  of :class:`SolveQuery` records (or kwargs dicts), solved one at a time,
  results in input order.  The scenario sweeps
  (:mod:`repro.analysis.sweep`) drive it.

Every query's plan comes from one path, :meth:`SolverSession.plan`: the
session's own weights use the pinned base plan, and any other weight
column — a full ``weights`` list, a sparse ``weights_delta``, or one
query of a batch — gets a plan derived from the base plan by its diff
(:meth:`~repro.runtime.plan.SolverPlan.from_delta`), cached in an LRU
keyed by :func:`~repro.runtime.handle.weights_token`.

**Bit-identity contract.**  A session solve returns exactly what the
one-shot API returns for the same parameters — same edges, weights, duals,
guarantees, certificates, logs.  The one-shot functions
(:func:`repro.core.tecss.approximate_two_ecss`,
:func:`repro.dist.pipeline.distributed_two_ecss`) are thin wrappers that
build a fresh single-use session/plan, so "one-shot vs session" is
precisely "rebuild-per-call vs reuse" — held by the seeded fuzz suite in
``tests/test_runtime_session.py`` across every registered backend.

Execution is routed through the backend registry
(:mod:`repro.runtime.registry`): ``backend`` names a *compute* entry
(``reference``/``fast``/``auto``), ``engine`` an *engine* entry
(``local``/``sim``); unknown names raise a one-line
:class:`~repro.runtime.registry.UnknownBackendError` listing what is
registered, and failure injection is gated on the engine's
``failure-injection`` capability flag instead of a hard-coded name.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping, Sequence

import networkx as nx

from repro import obs
from repro.core.k_ecss import MAX_K
from repro.core.tap import assemble_tap_result, solve_virtual_tap
from repro.core.tecss import assemble_two_ecss
from repro.exceptions import InvariantViolation
from repro.runtime.handle import GraphHandle, weights_token
from repro.runtime.plan import SolverPlan
from repro.runtime.registry import get_backend, resolve_compute

__all__ = ["SolveQuery", "SolverSession"]


def _check_k(k: object) -> None:
    """Validate a query's ``k``: an int (not a bool) in ``2..MAX_K``."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the supported maximum k={MAX_K}")


@dataclass(frozen=True)
class SolveQuery:
    """One solve request for :meth:`SolverSession.solve_many`.

    ``weights`` optionally reassigns edge weights for this query (see
    :meth:`repro.runtime.handle.GraphHandle.reweight` for accepted
    shapes); ``failures`` is a :class:`~repro.sim.failures.FailurePlan`
    for engines with the ``failure-injection`` capability.  ``backend``
    and ``engine`` default to the session's own defaults when ``None``.
    ``k`` is the target edge connectivity (default 2; values above 2 need
    an engine with the ``k-ecss`` capability and return a
    :class:`~repro.core.result.KEcssResult`).
    """

    eps: float = 0.25
    variant: str = "improved"
    segmented: bool = True
    validate: bool = True
    backend: str | None = None
    engine: str | None = None
    weights: object = field(default=None, compare=False)
    weights_delta: object = field(default=None, compare=False)
    failures: object = field(default=None, compare=False)
    simulate_mst: bool = False
    k: int = 2


class SolverSession:
    """Reusable solving context for one topology (see module docstring).

    Parameters
    ----------
    graph:
        The input graph (any hashable labels, ``weight`` attributes) or a
        prebuilt :class:`~repro.runtime.handle.GraphHandle`.  Validation
        and normalization happen here, once.
    backend, engine:
        Session defaults for queries that leave theirs ``None``.
    words_per_edge, scheduler:
        CONGEST engine knobs forwarded to message-level (``sim``) solves.
    max_plans:
        Size of the per-weights plan LRU; reweighted scenarios beyond the
        cap evict the least recently used plan (the pinned base plan and
        the handle's topology-level caches are never evicted).
    """

    #: Inert: :meth:`SolverPlan.from_delta` ignores both values.  They stay
    #: only because perfbench's drift ledger (``perfbench/workloads.py``)
    #: reads them to call ``from_delta``; they go together with that call.
    delta_max_fraction = 0.05
    delta_max_swaps = None

    def __init__(
        self,
        graph: nx.Graph | GraphHandle,
        backend: str = "reference",
        engine: str = "local",
        words_per_edge: int = 4,
        scheduler: Any = None,
        max_plans: int = 8,
    ) -> None:
        self.handle = (
            graph if isinstance(graph, GraphHandle)
            else GraphHandle.from_graph(graph)
        )
        self.default_backend = backend
        self.default_engine = engine
        self.words_per_edge = words_per_edge
        self.scheduler = scheduler
        self.max_plans = max(1, max_plans)
        #: Keyed by the column's weights token; the base plan under None.
        self._plans: "OrderedDict[tuple | None, SolverPlan]" = OrderedDict()
        self._counters = {
            "solves": 0, "plans_built": 0, "plan_hits": 0,
            "plan_evictions": 0, "delta_requests": 0, "delta_tree_reuses": 0,
            "delta_tree_swaps": 0,
        }
        self._evicted_build_times: dict[str, float] = {}
        # The base plan is pinned outside the LRU: every other column's
        # plan derives from it, so eviction must never force a rebuild.
        self._base_plan: SolverPlan | None = None

    # ------------------------------------------------------------------
    # plans
    # ------------------------------------------------------------------

    def plan(
        self,
        weights: "Sequence | Mapping | None" = None,
        weights_delta: "Mapping | None" = None,
    ) -> SolverPlan:
        """The cached plan for this topology under ``weights`` (LRU).

        ``weights=None`` means the handle's own weight column;
        ``weights_delta`` instead applies a sparse ``{edge: new_weight}``
        diff against the session's **base** weights (idempotent and
        order-independent, so coalesced/retried delta requests are safe).
        Either way the column is diffed against the base weights
        (:meth:`GraphHandle.reweight`): an unchanged column gets the
        pinned base plan, and any other is derived from it
        (:meth:`SolverPlan.from_delta`) and counted under
        ``delta_tree_reuses`` or ``delta_tree_swaps``.  Derived plans are
        keyed by :func:`weights_token`, so equal columns share one plan
        whatever shape they came in.  The base plan is built once: after
        its LRU eviction the pinned plan is re-inserted, not rebuilt.
        """
        if weights_delta is not None:
            if weights is not None:
                raise ValueError(
                    "pass either weights or weights_delta, not both"
                )
            self._counters["delta_requests"] += 1
            handle = self.handle.reweight_delta(weights_delta)
        elif weights is not None:
            handle = self.handle.reweight(weights)
        else:
            handle = self.handle
        key: tuple | None = None
        if handle is self.handle:
            plan = self._base_plan
        else:
            key = weights_token(handle.weights)
            plan = self._plans.get(key)
        if plan is not None:
            self._counters["plan_hits"] += 1
        elif handle is self.handle:
            plan = self._base_plan = SolverPlan(handle)
            self._counters["plans_built"] += 1
        else:
            plan = SolverPlan.from_delta(self.base_plan(), handle)
            reused = plan.delta_info["mode"] == "reused"
            self._counters[
                "delta_tree_reuses" if reused else "delta_tree_swaps"
            ] += 1
            self._counters["plans_built"] += 1
        self._insert_plan(key, plan)
        return plan

    def base_plan(self) -> SolverPlan:
        """The pinned plan for the session's own weight column.

        Built on first use and kept alive independently of the LRU —
        every derived plan reads its tree and instances, so evicting it
        would silently reintroduce full rebuilds.
        """
        if self._base_plan is None:
            self.plan(None)  # builds and pins
        return self._base_plan

    def _insert_plan(self, key: tuple | None, plan: SolverPlan) -> None:
        """(Re-)insert a plan as the LRU's newest and evict past the cap."""
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.max_plans:
            _, evicted = self._plans.popitem(last=False)
            self._counters["plan_evictions"] += 1
            if evicted is self._base_plan:
                # Still pinned and still accumulating build times; its
                # accounting stays live in stats() instead of freezing.
                continue
            # Keep the evicted plan's build-time accounting: stats()
            # reports total seconds spent building artifacts, not just
            # the seconds still resident in the LRU.
            for phase, secs in evicted.build_times.items():
                self._evicted_build_times[phase] = (
                    self._evicted_build_times.get(phase, 0.0) + secs
                )

    def stats(self) -> dict:
        """Plan-cache and build-time accounting for this session.

        Returns a fresh dict with the lifetime counters (``solves``,
        ``plans_built``, ``plan_hits``, ``plan_misses`` — equal to
        ``plans_built`` — and ``plan_evictions``; ``delta_requests``, the
        queries that came as a ``weights_delta``; and
        ``delta_tree_reuses`` / ``delta_tree_swaps``, the derived plans
        that kept or moved the base MST), the cache occupancy
        (``plans_cached`` / ``max_plans``), and ``build_times_s``: wall
        seconds per build phase (``mst``, ``links``, ``diameter``,
        ``instance:<flavor>``, and the derived plans' ``links:delta`` and
        ``instance:<flavor>:delta``) summed across every plan this session
        ever built, evicted plans included.  Surfaced by the serving layer's
        ``/metrics`` route and ``python -m repro sweep --debug``.
        """
        build_times = dict(self._evicted_build_times)
        live = list(self._plans.values())
        if self._base_plan is not None and self._base_plan not in live:
            live.append(self._base_plan)  # pinned past its LRU eviction
        for plan in live:
            for phase, secs in plan.build_times.items():
                build_times[phase] = build_times.get(phase, 0.0) + secs
        return {
            **self._counters,
            # There is one solve path; perfbench's scenario ledger still
            # reads this former routing counter.
            "scalar_fallback": 0,
            "plan_misses": self._counters["plans_built"],
            "plans_cached": len(self._plans),
            "max_plans": self.max_plans,
            "build_times_s": build_times,
        }

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------

    def solve(
        self,
        eps: float = 0.25,
        variant: str = "improved",
        segmented: bool = True,
        validate: bool = True,
        backend: str | None = None,
        engine: str | None = None,
        weights: "Sequence | Mapping | None" = None,
        weights_delta: "Mapping | None" = None,
        failures: Any = None,
        simulate_mst: bool = False,
        k: int = 2,
    ) -> Any:
        """Solve one query against the cached plan.

        ``weights_delta`` is the sparse counterpart of ``weights``: a
        ``{edge: new_weight}`` diff against the session's base weights,
        served by the incremental plan-derivation path (see
        :meth:`plan`) with bit-identical results.

        ``k`` is the target edge connectivity.  The default ``k=2`` takes
        exactly the existing 2-ECSS path; ``k > 2`` (up to
        :data:`repro.core.k_ecss.MAX_K`) runs the iterated augmentation
        rounds of :mod:`repro.core.k_ecss` on top of the same plan
        artifacts and is gated on the engine's ``k-ecss`` capability (the
        ``sim`` engine does not carry it; every compute flavor runs it).

        Returns a :class:`~repro.core.result.TwoEcssResult` for the
        ``local`` engine with ``k=2``, a
        :class:`~repro.core.result.KEcssResult` for ``k > 2``, and a
        :class:`~repro.dist.pipeline.DistTwoEcssResult` for ``sim`` —
        for ``k=2``, exactly the objects the corresponding one-shot
        functions return, bit-identical field by field.
        """
        return self._solve_query(SolveQuery(
            eps=eps, variant=variant, segmented=segmented,
            validate=validate, backend=backend, engine=engine,
            weights=weights, weights_delta=weights_delta,
            failures=failures, simulate_mst=simulate_mst, k=k,
        ))

    def _solve_query(self, query: SolveQuery) -> Any:
        """Solve one parsed query (the body of :meth:`solve`)."""
        backend = (
            query.backend if query.backend is not None
            else self.default_backend
        )
        engine = (
            query.engine if query.engine is not None
            else self.default_engine
        )
        eps, variant = query.eps, query.variant
        segmented, validate = query.segmented, query.validate
        failures, simulate_mst, k = query.failures, query.simulate_mst, query.k
        spec = get_backend("engine", engine)
        if failures is not None and not spec.has("failure-injection"):
            raise ValueError(
                f"failure injection requires an engine with the "
                f"'failure-injection' capability (e.g. 'sim'); "
                f"got {engine!r}"
            )
        _check_k(k)
        if k != 2:
            if not spec.has("k-ecss"):
                raise ValueError(
                    f"k={k} requires an engine with the 'k-ecss' "
                    f"capability (e.g. 'local'); got {engine!r}"
                )
        self._counters["solves"] += 1
        with obs.span("session.solve", engine=engine, k=k):
            plan = self.plan(query.weights, query.weights_delta)
            if engine == "sim":
                from repro.dist.pipeline import distributed_two_ecss

                return distributed_two_ecss(
                    None,
                    eps=eps,
                    variant=variant,
                    segmented=segmented,
                    validate=validate,
                    words_per_edge=self.words_per_edge,
                    scheduler=self.scheduler,
                    failures=failures,
                    plan=plan,
                )
            flavor = resolve_compute(backend)
            if k == 2:
                return self._solve_local(
                    plan, eps, variant, segmented, validate, flavor,
                    simulate_mst,
                )
            return self._solve_k(
                plan, k, eps, variant, segmented, validate, flavor,
                simulate_mst,
            )

    def _solve_k(
        self,
        plan: SolverPlan,
        k: int,
        eps: float,
        variant: str,
        segmented: bool,
        validate: bool,
        flavor: str,
        simulate_mst: bool,
    ) -> Any:
        """The k > 2 path: round-2 base solve + memoized augmentation rounds.

        The base 2-ECSS runs through :meth:`_solve_local` (same plan
        artifacts, same bit-identity), its normalized edge set seeds the
        plan's :meth:`~repro.runtime.plan.SolverPlan.k_rounds` memo, and
        :func:`repro.core.k_ecss.assemble_k_ecss` stitches the rounds into
        a :class:`~repro.core.result.KEcssResult` (with the final min-cut
        certificate when ``validate`` is on).
        """
        from repro.core.k_ecss import assemble_k_ecss

        base = self._solve_local(
            plan, eps, variant, segmented, validate, flavor, simulate_mst
        )
        base_edges = set(plan.mst_edges)
        base_edges.update(
            tuple(sorted(link)) for link in base.augmentation.links
        )
        rounds = plan.k_rounds(
            k, base_edges, eps=eps, variant=variant, segmented=segmented,
            flavor=flavor, validate=validate,
        )
        return assemble_k_ecss(
            self.handle.graph if validate else None,
            plan.nodes, base, base_edges, rounds, k,
            validate=validate, diameter=plan.diameter, n=plan.handle.n,
            degree_bound=plan.k_degree_bound(k),
        )

    def _solve_local(
        self,
        plan: SolverPlan,
        eps: float,
        variant: str,
        segmented: bool,
        validate: bool,
        flavor: str,
        simulate_mst: bool,
    ) -> Any:
        """The centralized solve path over a plan's shared instance.

        ``simulate_mst`` runs Borůvka message-level and raises
        :class:`~repro.exceptions.InvariantViolation` if its tree differs
        from the plan's MST, as the strict dist pipeline does.
        """
        mst_simulation = None
        if simulate_mst:
            from repro.sim import BatchedNetwork, BoruvkaMST

            outcome = BoruvkaMST(BatchedNetwork(plan.g)).run()
            if outcome.edges != plan.mst_edges:
                raise InvariantViolation(
                    "distributed mst diverged from reference: "
                    "Boruvka MST differs from the centralized MST"
                )
            mst_simulation = outcome.stats
        inst = plan.instance(flavor)
        with obs.span("solve.tap", backend=flavor):
            fwd, rev = solve_virtual_tap(
                inst, eps=eps, variant=variant, segmented=segmented,
                validate=validate, backend=flavor,
            )
        with obs.span("solve.assemble"):
            tap = assemble_tap_result(
                inst, fwd, rev, eps=eps, variant=variant,
                segmented=segmented, validate=validate, backend=flavor,
            )
            # Validation certifies the cover on the plan's tree (the fast
            # flavor on the instance's cached tree arrays) and looks the
            # links up in the base handle's edge set (``has_edge``), which
            # every weight column shares: no solve builds an nx.Graph.
            return assemble_two_ecss(
                self.handle if validate else None,
                plan.nodes, plan.mst_edges, tap,
                validate=validate, mst_simulation=mst_simulation,
                diameter=plan.diameter, mst_weight=plan.mst_weight,
                n=plan.handle.n, mst_edges_out=plan.labeled_mst_edges,
                tree=plan.tree,
                tree_arrays=inst.arrays.ta if flavor == "fast" else None,
            )

    @staticmethod
    def _coerce_query(query: "SolveQuery | Mapping") -> SolveQuery:
        """Parse one :meth:`solve_many` entry into a :class:`SolveQuery`.

        Mappings with unknown keys raise a one-line :class:`ValueError`
        naming the offending keys and the valid fields, instead of the
        raw ``TypeError`` that ``SolveQuery(**mapping)`` would surface.
        """
        if isinstance(query, Mapping):
            valid = [f.name for f in fields(SolveQuery)]
            unknown = sorted(str(key) for key in query if key not in valid)
            if unknown:
                raise ValueError(
                    f"unknown SolveQuery field(s) {', '.join(unknown)}; "
                    f"valid fields: {', '.join(valid)}"
                )
            return SolveQuery(**query)
        return query

    def solve_many(self, queries: Iterable[SolveQuery | Mapping]) -> list:
        """Solve a batch of queries; results come back in input order.

        Each query is a :class:`SolveQuery` or a kwargs mapping (unknown
        mapping keys raise a one-line error naming the valid fields; all
        entries are parsed before any is solved).  Each query is then
        solved as :meth:`solve` would, through the one plan path
        (:meth:`plan`), so queries with equal weight columns share one
        plan and every result equals the matching :meth:`solve`.
        """
        parsed = [self._coerce_query(query) for query in queries]
        with obs.span("session.solve_many", queries=len(parsed)):
            return [self._solve_query(query) for query in parsed]

    #: The former name of :meth:`solve_many`, kept for existing callers.
    solve_batch_vectorized = solve_many

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SolverSession(n={self.handle.n}, m={self.handle.m}, "
            f"plans={len(self._plans)}, solves={self._counters['solves']})"
        )
