"""``repro.runtime`` — the plan/query seam: cache topology, batch queries.

The paper's pipeline is a chain of per-topology artifacts (MST, rooted
tree, Euler/LCA labels, HLD, layering, segments, kernel arrays) consumed
by per-query phases (forward primal-dual, reverse-delete, certificates).
The one-shot API rebuilt everything from a raw ``nx.Graph`` on every call;
this package separates the two halves so repeated solves on one topology —
weight reassignments, eps/variant sweeps, failure scenarios — pay for the
plan once:

* :class:`~repro.runtime.handle.GraphHandle` — immutable array-backed
  normalized graph; validation, normalization and diameter are computed
  once per *topology* and shared across ``reweight`` variants;
* :class:`~repro.runtime.plan.SolverPlan` — the weight-dependent
  artifacts (MST, links, ``TAPInstance`` per compute flavor), built
  lazily, each exactly once;
* :class:`~repro.runtime.session.SolverSession` — ``solve`` /
  ``solve_many`` over an LRU of plans, returning results **bit-identical**
  to the one-shot API (which is now a thin wrapper over a fresh session).
  Every weight column other than the session's own — a full column, a
  sparse delta, one query of a batch — takes one plan path: its plan is
  derived from the pinned base plan by its diff;
* :mod:`~repro.runtime.registry` — the fixed table of the five
  execution backends (``backend=`` compute flavors and ``engine=``
  pipelines) as :class:`~repro.runtime.registry.BackendSpec` entries
  with capability flags (``vectorized``, ``message-level``,
  ``failure-injection``, …) and one-line unknown-name errors.

Quick use::

    from repro.runtime import SolverSession, SolveQuery

    session = SolverSession(graph, backend="fast")
    base = session.solve(eps=0.5)                    # builds the plan
    swept = session.solve_many(
        [SolveQuery(eps=e) for e in (0.1, 0.25, 0.5, 1.0)]
    )                                                # reuses the plan

This is the architectural seam the scaling layers plug into: the serving
subsystem (:mod:`repro.serve`) shards topologies across worker processes
and coalesces concurrent requests into batches solved on warm sessions; :meth:`~repro.runtime.session.SolverSession.stats` exposes the
plan-cache accounting (hits/misses/evictions, per-phase build times) its
``/metrics`` route and ``python -m repro sweep --debug`` surface.
"""

from repro.runtime.handle import GraphHandle
from repro.runtime.plan import SolverPlan
from repro.runtime.registry import (
    BackendSpec,
    UnknownBackendError,
    backend_names,
    get_backend,
    registered_payload,
    resolve_compute,
)
from repro.runtime.session import SolveQuery, SolverSession

__all__ = [
    "BackendSpec",
    "GraphHandle",
    "SolveQuery",
    "SolverPlan",
    "SolverSession",
    "UnknownBackendError",
    "backend_names",
    "get_backend",
    "registered_payload",
    "resolve_compute",
]
