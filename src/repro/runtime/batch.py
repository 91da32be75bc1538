"""Scenario-batched solving: many weight columns of one topology.

Monte-Carlo what-if sweeps solve one topology under many weight columns,
and their perturbations rarely move the MST.
:meth:`repro.runtime.session.SolverSession.solve_many` routes every
compatible group of two or more fast-backend queries here, where each
distinct column (value *and* type,
:func:`~repro.runtime.handle.weights_token`) is a sparse delta against
the session's base weights:

1. **Plans** (``batch.group``) — a column equal to the base solves on
   the pinned base plan; any other records its exact diff as delta
   lineage and gets its plan from
   :meth:`~repro.runtime.plan.SolverPlan.from_delta`, so a plan whose MST
   is the base's shares the base's tree, layering, HLD, segments, kernel
   arrays and labeled MST.  Batch plans stay out of the plan LRU and the
   ``delta_*`` counters, and never pay for a ``weights_key``.
2. **Solves** (``batch.tails``) — each column runs the one-query path,
   :meth:`~repro.runtime.session.SolverSession._solve_local`, on its plan.

Every step is the one-query path's own code, so each result equals
:meth:`~repro.runtime.session.SolverSession.solve` field for field — held
by ``tests/test_scenario_batch.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro import obs
from repro.fast import require_numpy
from repro.runtime.handle import GraphHandle, weights_token
from repro.runtime.plan import SolverPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.session import SolveQuery, SolverSession

__all__ = ["solve_scenario_group"]


def _scenario_plan(
    session: "SolverSession", handle: GraphHandle, types: tuple,
    base_bits: Any,
) -> SolverPlan:
    """The plan of one scenario column, a delta against the base weights.

    The diff keeps each entry whose repr changed, as
    :meth:`~repro.runtime.handle.GraphHandle.reweight_delta` does (``1``
    is not ``1.0``).  When both columns hold only floats (``types``, from
    the column's weights token; ``base_bits``, the base's float64 bits),
    equal bits mean equal reprs: one vectorized compare finds the diff.
    """
    base, weights = session.handle, handle.weights
    if base_bits is not None and types.count(float) == len(types):
        np = require_numpy()
        column = np.fromiter(weights, dtype=np.float64, count=len(weights))
        bits = column.view(np.int64)
        diff = np.flatnonzero(bits != base_bits).tolist()
    else:
        diff = [
            i for i, (w, b) in enumerate(zip(weights, base.weights))
            if w is not b and repr(w) != repr(b)
        ]
    if not diff:
        return session.base_plan()
    # The batch's own reweight clone takes reweight_delta's lineage.
    handle.delta_base = base
    handle.delta_changes = {i: weights[i] for i in diff}
    return SolverPlan.from_delta(session.base_plan(), handle)


def solve_scenario_group(
    session: "SolverSession",
    queries: "Sequence[SolveQuery]",
    eps: float,
    variant: str,
    segmented: bool,
    validate: bool,
) -> list[Any]:
    """Solve one compatible scenario group on base-derived plans.

    ``queries`` share ``eps``/``variant``/``segmented``/``validate``, the
    local engine, ``k=2``, the fast compute flavor, and carry no failure
    plans — :meth:`SolverSession.solve_many` enforces that before calling
    here.  Results come back aligned with ``queries`` and bit-identical to
    the one-query path.
    """
    np = require_numpy()
    base = session.handle

    # Deduplicate queries by weight column: identical columns share one
    # scenario (and therefore one plan, one instance, one solve).
    columns: list[tuple[GraphHandle, tuple]] = []
    scenario_of: list[int] = []
    seen: dict[tuple, int] = {}
    for query in queries:
        handle = (
            base if query.weights is None else base.reweight(query.weights)
        )
        key = weights_token(handle.weights)
        at = seen.setdefault(key, len(seen))
        if at == len(columns):
            columns.append((handle, key[2]))
        scenario_of.append(at)

    base_bits = None
    if all(type(w) is float for w in base.weights):
        base_bits = np.asarray(base.weights, dtype=np.float64).view(np.int64)
    plans: list[SolverPlan] = []
    with obs.span("batch.group", scenarios=len(columns)):
        for handle, types in columns:
            plan = _scenario_plan(session, handle, types, base_bits)
            plan.instance("fast")  # derivation books here, not in the solve
            plans.append(plan)

    with obs.span("batch.tails", scenarios=len(columns)):
        results = [
            session._solve_local(
                plan, eps, variant, segmented, validate, "fast",
                simulate_mst=False,
            )
            for plan in plans
        ]
    return [results[at] for at in scenario_of]
