"""SolverSession: many queries, one plan — the batch-solve entry point.

A session binds one :class:`~repro.runtime.handle.GraphHandle` to a small
LRU cache of :class:`~repro.runtime.plan.SolverPlan` objects (one per
weight assignment) and exposes:

* :meth:`SolverSession.solve` — one 2-ECSS query (``eps``, ``variant``,
  compute backend, engine, optional weight reassignment, optional failure
  plan) — or a k-ECSS query via ``k > 2`` (:mod:`repro.core.k_ecss`),
  gated on the ``k-ecss`` backend capability — reusing every plan
  artifact a previous solve already built;
* :meth:`SolverSession.solve_many` — the one batch entry point: a list
  of :class:`SolveQuery` records (or kwargs dicts), results in input
  order.  Compatible fast-backend scenarios run as one scenario-axis
  kernel pass (:mod:`repro.runtime.batch`); everything else is solved one
  query at a time against the shared plan cache.  The scenario sweeps
  (:mod:`repro.analysis.sweep`) and the serve workers drive it.

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
    the ``k-ecss`` capability on both the compute backend and the engine
    and return a :class:`~repro.core.result.KEcssResult`).
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
        cap evict the least recently used plan (the handle's
        topology-level caches are never evicted).
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
        self._plans: "OrderedDict[str, SolverPlan]" = OrderedDict()
        self._counters = {
            "solves": 0, "plans_built": 0, "plan_hits": 0,
            "plan_evictions": 0, "delta_requests": 0, "delta_tree_reuses": 0,
            "delta_tree_swaps": 0, "vectorized_batches": 0,
            "scalar_fallback": 0,
        }
        self._evicted_build_times: dict[str, float] = {}
        # The base plan is pinned outside the LRU: every delta derives
        # from it, so eviction must never force a full rebuild of it.
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
        order-independent, so coalesced/retried delta requests are safe)
        and derives the plan incrementally from the pinned base plan (see
        :meth:`SolverPlan.from_delta`).  Plans are keyed by the
        weight-column fingerprint, so two equal reassignments — or two
        equal diffs — share one plan.  The base plan is built once: after
        its LRU eviction the pinned plan is re-inserted, not rebuilt.
        """
        if weights_delta is not None:
            if weights is not None:
                raise ValueError(
                    "pass either weights or weights_delta, not both"
                )
            return self._delta_plan(weights_delta)
        handle = self.handle if weights is None else self.handle.reweight(weights)
        key = handle.weights_key
        plan = self._plans.get(key)
        if plan is None and key == self.handle.weights_key:
            # The pinned base plan outlives its LRU slot: re-insert it.
            plan = self._base_plan
            if plan is not None:
                self._insert_plan(key, plan)
        if plan is None:
            plan = SolverPlan(handle)
            self._counters["plans_built"] += 1
            self._insert_plan(key, plan)
            if key == self.handle.weights_key:
                self._base_plan = plan
        else:
            self._counters["plan_hits"] += 1
        self._plans.move_to_end(key)
        return plan

    def base_plan(self) -> SolverPlan:
        """The pinned plan for the session's own weight column.

        Built on first use and kept alive independently of the LRU —
        every delta derivation reads its tree and instances, so evicting
        it would silently reintroduce full rebuilds.
        """
        if self._base_plan is None:
            self.plan(None)  # builds and pins
        return self._base_plan

    def _delta_plan(self, changed: "Mapping") -> SolverPlan:
        """Resolve, derive, and cache the plan for one sparse diff."""
        self._counters["delta_requests"] += 1
        handle = self.handle.reweight_delta(changed)
        if handle is self.handle:
            # No effective change: the diff restated base weights.
            self._counters["delta_tree_reuses"] += 1
            return self.plan(None)
        key = handle.weights_key
        plan = self._plans.get(key)
        if plan is None:
            plan = SolverPlan.from_delta(self.base_plan(), handle)
            reused = plan.delta_info["mode"] == "reused"
            self._counters[
                "delta_tree_reuses" if reused else "delta_tree_swaps"
            ] += 1
            self._counters["plans_built"] += 1
            self._insert_plan(key, plan)
        else:
            self._counters["plan_hits"] += 1
        self._plans.move_to_end(key)
        return plan

    def _insert_plan(self, key: str, plan: SolverPlan) -> None:
        """Insert a plan into the LRU and evict past the cap."""
        self._plans[key] = plan
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
        ``plans_built`` — and ``plan_evictions``; the delta-path
        counters ``delta_requests``, ``delta_tree_reuses``,
        ``delta_tree_swaps``; and the batch-path
        pair ``vectorized_batches`` / ``scalar_fallback`` counting how
        :meth:`solve_many` routed its queries), the cache
        occupancy
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
        artifacts and is gated on the ``k-ecss`` capability of both the
        resolved compute backend and the engine (the ``sim`` engine does
        not carry it).

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

    def _solve_query(
        self,
        query: SolveQuery,
        plan_cache: "dict[object, SolverPlan] | None" = None,
    ) -> Any:
        """Solve one parsed query (the body of :meth:`solve`).

        ``plan_cache`` is :meth:`solve_many`'s batch-local weight-
        token map: queries whose weight inputs are equal value for value
        and type for type share one resolved plan without re-paying the
        reweight + key computation (LRU ``plan_hits`` accounting is
        preserved for such hits).
        """
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
            compute_spec = get_backend("compute", resolve_compute(backend))
            if not compute_spec.has("k-ecss"):
                raise ValueError(
                    f"k={k} requires a compute backend with the 'k-ecss' "
                    f"capability; got {backend!r}"
                )
        self._counters["solves"] += 1
        with obs.span("session.solve", engine=engine, k=k):
            plan: SolverPlan | None = None
            token = (
                self._weights_token(query) if plan_cache is not None else None
            )
            if token is not None and plan_cache is not None:
                plan = plan_cache.get(token)
                if plan is not None:
                    self._counters["plan_hits"] += 1
            if plan is None:
                plan = self.plan(query.weights, query.weights_delta)
                if token is not None and plan_cache is not None:
                    plan_cache[token] = plan
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
            plan.g if validate else None,
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
        fwd: Any = None,
    ) -> Any:
        """The centralized solve path over a plan's shared instance.

        A given ``fwd`` (the scenario batch's) skips the forward phase.
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
                validate=validate, backend=flavor, fwd=fwd,
            )
        with obs.span("solve.assemble"):
            tap = assemble_tap_result(
                inst, fwd, rev, eps=eps, variant=variant,
                segmented=segmented, validate=validate, backend=flavor,
            )
            # Only validation walks the nx.Graph; every other input is on
            # the plan, so a validate=False solve never materializes the
            # graph — an O(m) build the delta path must not pay per tick.
            return assemble_two_ecss(
                plan.g if (validate or simulate_mst) else None,
                plan.nodes, plan.mst_edges, tap,
                validate=validate, mst_simulation=mst_simulation,
                diameter=plan.diameter, mst_weight=plan.mst_weight,
                n=plan.handle.n, mst_edges_out=plan.labeled_mst_edges,
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

    @staticmethod
    def _weights_token(query: SolveQuery) -> object | None:
        """A hashable token of the query's weight inputs, or ``None``.

        Two queries with equal tokens resolve to the same plan *and* the
        same result, so :meth:`solve_many` shares one plan lookup across
        them; the token is :func:`~repro.runtime.handle.weights_token`,
        which tells ``1`` from ``1.0``.  ``None`` (no safe token) means
        "resolve through :meth:`plan`".
        """
        try:
            if query.weights_delta is not None:
                delta = query.weights_delta
                if isinstance(delta, Mapping):
                    return ("delta", weights_token(delta))
                return None
            if query.weights is None:
                return ("base",)
            return weights_token(query.weights)
        except TypeError:  # unhashable / non-iterable: let plan() decide
            return None

    def _vectorizable(self, query: SolveQuery) -> bool:
        """Whether a query can join a scenario-vectorized kernel batch.

        The batched path covers the bread-and-butter scenario sweep:
        local engine, ``k=2``, dense-or-default weights, no failure
        plan, no MST simulation, and a compute backend resolving to
        ``fast``.  Anything else — including a backend whose resolution
        raises — takes the one-query path, which reproduces the
        scalar error semantics exactly.
        """
        if query.k != 2 or query.simulate_mst:
            return False
        if query.failures is not None or query.weights_delta is not None:
            return False
        engine = (
            query.engine if query.engine is not None
            else self.default_engine
        )
        if engine != "local":
            return False
        backend = (
            query.backend if query.backend is not None
            else self.default_backend
        )
        try:
            return resolve_compute(backend) == "fast"
        except Exception:
            return False

    def solve_many(self, queries: Iterable[SolveQuery | Mapping]) -> list:
        """Solve a batch of queries; results come back in input order.

        Each query is a :class:`SolveQuery` or a kwargs mapping (unknown
        mapping keys raise a one-line error naming the valid fields).
        Queries that agree on ``(eps, variant, segmented, validate)`` and
        are :meth:`_vectorizable` run as one scenario-axis kernel batch
        (:mod:`repro.runtime.batch`) when there are at least two of them:
        one MST/instance structure per distinct tree and a single
        ``(scenarios × edges)`` forward phase, bit-identical per scenario
        to :meth:`solve`.  Everything else — sim engine, ``k > 2``,
        failure plans, sparse deltas, non-fast backends, and singleton
        groups — is solved one query at a time through the plan LRU;
        queries whose weight inputs match (value and type) share one plan
        lookup, so a 100-scenario eps/weight sweep builds each plan's
        artifacts exactly once.  The ``vectorized_batches`` /
        ``scalar_fallback`` counters (see :meth:`stats`) record the
        routing.
        """
        parsed = [self._coerce_query(query) for query in queries]
        results: list[Any] = [None] * len(parsed)
        groups: "OrderedDict[tuple, list[int]]" = OrderedDict()
        scalars: list[int] = []
        for i, query in enumerate(parsed):
            if self._vectorizable(query):
                key = (
                    query.eps, query.variant, query.segmented,
                    query.validate,
                )
                groups.setdefault(key, []).append(i)
            else:
                scalars.append(i)
        for key in [k for k, idxs in groups.items() if len(idxs) < 2]:
            scalars.extend(groups.pop(key))
        scalars.sort()
        with obs.span(
            "session.solve_many",
            queries=len(parsed), vectorized=len(parsed) - len(scalars),
            scalar=len(scalars),
        ):
            if scalars:
                self._counters["scalar_fallback"] += len(scalars)
                plan_cache: dict[object, SolverPlan] = {}
                for i in scalars:
                    results[i] = self._solve_query(parsed[i], plan_cache)
            if groups:
                from repro.runtime.batch import solve_scenario_group

                for (
                    eps, variant, segmented, validate,
                ), idxs in groups.items():
                    self._counters["vectorized_batches"] += 1
                    self._counters["solves"] += len(idxs)
                    group_results = solve_scenario_group(
                        self, [parsed[i] for i in idxs],
                        eps=eps, variant=variant, segmented=segmented,
                        validate=validate,
                    )
                    for i, result in zip(idxs, group_results):
                        results[i] = result
        return results

    #: The former name of :meth:`solve_many`, kept for existing callers.
    solve_batch_vectorized = solve_many

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SolverSession(n={self.handle.n}, m={self.handle.m}, "
            f"plans={len(self._plans)}, solves={self._counters['solves']})"
        )
