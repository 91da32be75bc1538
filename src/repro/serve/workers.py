"""Topology-sharded solver workers: one process owns a topology's sessions.

The dispatch rule is the whole design: a topology fingerprint is hashed to
a shard (:meth:`ShardedWorkerPool.shard_of`), and every batch for that
topology goes to the *same* single-process executor.  Each worker process
keeps an LRU of :class:`~repro.runtime.session.SolverSession` objects
keyed by topology, so all traffic for a topology lands on one warm
session — plan caches (validation, normalization, diameter, MST, virtual
graph, kernel arrays) are shared across every user querying that
topology, which is where the serving layer's throughput comes from.

Workers are *warm-imported* like the sweep pool
(:func:`repro.analysis.sweep.warm_worker`): the solver stack is imported
in the pool initializer so first-request latency measures solving, not
imports.  ``shards=0`` selects the inline pool — same code path executed
in-process on a thread (via ``asyncio.to_thread``), used by the tests and
by single-process deployments.
"""

from __future__ import annotations

import asyncio
import os
import zlib
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro import obs
from repro.serve.protocol import (
    ProtocolError,
    SolveRequest,
    failure_plan_from_payload,
    result_to_payload,
)

__all__ = [
    "ShardedWorkerPool",
    "configure_worker",
    "error_item_from_exception",
    "solve_batch_payload",
    "worker_stats_payload",
]

# Per-process worker state (one process per shard; the inline pool uses
# this module's globals in the server process itself).
_SESSIONS: "OrderedDict[str, object]" = OrderedDict()
_SETTINGS: dict = {
    "backend": "auto", "engine": "local", "max_plans": 8, "max_sessions": 64,
    "tracing": True,
}


def configure_worker(settings: dict | None = None) -> None:
    """Pool initializer: warm-import the solver stack, set worker knobs.

    Idempotent; also clears the session cache so a reconfigured inline
    pool (tests) never reuses stale sessions.
    The ``tracing`` knob installs (or removes) this process's span
    tracer — worker processes have their own interpreter, so the server
    cannot enable tracing for them from the outside; the setting rides
    along with the executor initializer instead.
    """
    import repro.core.tecss  # noqa: F401
    import repro.dist.pipeline  # noqa: F401
    import repro.fast  # noqa: F401
    import repro.graphs.families  # noqa: F401
    import repro.runtime.session  # noqa: F401

    _SESSIONS.clear()
    if settings:
        _SETTINGS.update(settings)
    if _SETTINGS.get("tracing"):
        obs.enable()
    else:
        obs.disable()


def _exception_codes() -> "dict[type, tuple[str, int]]":
    """The declarative exception -> ``(code, status)`` mapping.

    Order matters and is most-specific-first: ``UnknownBackendError``,
    ``InvalidFailurePlanError`` and ``GraphFormatError`` subclass
    ``ValueError``, so the generic ``ValueError`` row must come last.
    The lint rule ``proto-error-code`` reads the codes out of this table,
    so every code here must appear in
    :data:`repro.serve.protocol.ERROR_CODES`.
    """
    from repro.exceptions import (
        GraphFormatError,
        InvalidFailurePlanError,
        NotConnectedError,
        NotKEdgeConnectedError,
        NotTwoEdgeConnectedError,
    )
    from repro.runtime.registry import UnknownBackendError

    _EXCEPTION_CODES = {
        UnknownBackendError: ("unknown-backend", 400),
        InvalidFailurePlanError: ("invalid-failures", 400),
        NotConnectedError: ("not-connected", 422),
        NotKEdgeConnectedError: ("not-k-edge-connected", 422),
        NotTwoEdgeConnectedError: ("not-two-edge-connected", 422),
        GraphFormatError: ("invalid-request", 400),
        ValueError: ("bad-request", 400),
        Exception: ("solver-error", 500),
    }
    return _EXCEPTION_CODES


def error_item_from_exception(exc: Exception) -> dict:
    """Map a solver/validation exception to a structured per-item error.

    Code running in a shard raises library exceptions, never a
    :class:`~repro.serve.protocol.ProtocolError`: request schemas are
    checked in the event loop before dispatch.  So a per-item error
    names no request ``field``.
    """
    code, status = "solver-error", 500
    for exc_type, (exc_code, exc_status) in _exception_codes().items():
        if isinstance(exc, exc_type):
            code, status = exc_code, exc_status
            break
    return {"error": {"code": code, "message": str(exc)}, "status": status}


def _original_graph(handle):
    """Rebuild the caller-labeled graph a one-shot user would have passed.

    Same labels, edge order, and weights as the registered payload — so a
    ``random`` failure spec expands to the exact
    :class:`~repro.sim.failures.FailurePlan` the one-shot differential
    builds.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(handle.nodes)
    for (u, v), w in zip(handle.edge_list, handle.weights):
        g.add_edge(u, v, weight=w)
    return g


def _query_for(session, request: SolveRequest):
    """Translate one wire request into a :class:`SolveQuery`.

    A wire ``delta`` becomes the session's sparse ``weights_delta``
    mapping — keyed by caller-labeled edge pairs, which
    :meth:`~repro.runtime.handle.GraphHandle.reweight_delta` resolves
    against the registered edge order.
    """
    from repro.runtime.session import SolveQuery

    failures = None
    if request.failures is not None:
        failures = failure_plan_from_payload(
            request.failures, _original_graph(session.handle)
        )
    delta = None
    if request.delta is not None:
        delta = {(u, v): w for u, v, w in request.delta}
    return SolveQuery(
        eps=request.eps,
        variant=request.variant,
        segmented=request.segmented,
        validate=request.validate,
        backend=request.backend,
        engine=request.engine,
        weights=request.weights,
        weights_delta=delta,
        failures=failures,
        simulate_mst=request.simulate_mst,
        k=request.k,
    )


def _session_for(topology: str, graph: dict | None):
    """The worker's cached session for a topology (LRU), or ``None``.

    ``None`` means the worker does not know the topology and the payload
    carried no graph — the pool retries with the graph attached or
    reports ``unknown-topology``.
    """
    from repro.runtime.handle import GraphHandle
    from repro.runtime.session import SolverSession

    session = _SESSIONS.get(topology)
    if session is None:
        if graph is None:
            return None
        session = SolverSession(
            GraphHandle.from_edges(graph["nodes"], graph["edges"]),
            backend=_SETTINGS["backend"],
            engine=_SETTINGS["engine"],
            max_plans=_SETTINGS["max_plans"],
        )
        _SESSIONS[topology] = session
        while len(_SESSIONS) > _SETTINGS["max_sessions"]:
            _SESSIONS.popitem(last=False)
    _SESSIONS.move_to_end(topology)
    return session


def _solve_on_session(session, requests: list[SolveRequest]) -> list[dict]:
    """Solve a coalesced batch on one session, one request at a time.

    Each request is translated and solved under its own ``try``, so a
    poisoned request (bad failure spec, wrong weights length) fails alone
    and every request is attempted exactly once.  Equal weight columns in
    a batch share one plan through the session's plan cache.
    """
    items = []
    for request in requests:
        try:
            result = session.solve_many([_query_for(session, request)])[0]
            with obs.span("serve.serialize", items=1):
                items.append({"result": result_to_payload(result)})
        except Exception as exc:  # noqa: BLE001 - structured per item
            items.append(error_item_from_exception(exc))
    return items


def solve_batch_payload(payload: dict) -> dict:
    """Worker entry point: solve one coalesced batch (runs in the shard).

    ``payload`` carries ``topology``, an optional ``graph`` payload and
    the parsed ``requests``.  Returns ``{"items": [...]}`` with
    one ``{"result": ...}`` or ``{"error": ..., "status": ...}`` per
    request (in order), plus the owning session's
    :meth:`~repro.runtime.session.SolverSession.stats` snapshot and the
    worker pid — or ``{"unknown_topology": True}`` when the topology is
    neither cached nor included.
    """
    topology = payload["topology"]
    graph = payload.get("graph")
    requests: list[SolveRequest] = payload["requests"]
    try:
        session = _session_for(topology, graph)
    except Exception as exc:  # noqa: BLE001 - bad graph fails every item
        item = error_item_from_exception(exc)
        return {
            "items": [dict(item) for _ in requests],
            "stats": None,
            "pid": os.getpid(),
        }
    if session is None:
        return {"unknown_topology": True}
    tracer = obs.get_tracer()
    with obs.span("worker.solve_batch", requests=len(requests)) as root:
        items = _solve_on_session(session, requests)
    out = {
        "items": items,
        "stats": session.stats(),
        "pid": os.getpid(),
    }
    if tracer.enabled:
        # Ship the batch's span tree back with the results (span objects
        # never cross the process boundary, their dict form does) and
        # drop it from this process's root buffer so a long-lived worker
        # does not accumulate one tree per batch forever.
        out["spans"] = [root.to_dict()]
        tracer.clear()
    return out


def worker_stats_payload() -> dict:
    """Per-worker state for ``/metrics``: pid + every cached session's stats."""
    return {
        "pid": os.getpid(),
        "sessions": [
            {
                "topology": topology,
                "n": session.handle.n,
                "m": session.handle.m,
                **session.stats(),
            }
            for topology, session in _SESSIONS.items()
        ],
    }


class ShardedWorkerPool:
    """A pool of single-process shards with topology-affine dispatch.

    ``shards >= 1`` spawns that many worker processes (one
    ``ProcessPoolExecutor(max_workers=1)`` each, so a shard serializes its
    batches and its sessions are single-threaded by construction);
    ``shards=0`` runs inline in the server process on a thread.  The pool
    tracks which topologies each shard has confirmed and ships raw edges
    only when needed; a shard that evicted a topology answers
    ``unknown_topology`` and the pool retries once with edges attached.
    """

    def __init__(self, shards: int = 1, settings: dict | None = None) -> None:
        self.shards = max(0, shards)
        self.settings = dict(settings or {})
        self._executors: list[ProcessPoolExecutor] = []
        # Inline mode still needs the single-threaded-session guarantee:
        # one dedicated thread serializes every batch (asyncio.to_thread
        # would hand consecutive batches to different pool threads and
        # race the module-level session cache).
        self._inline_executor: ThreadPoolExecutor | None = None
        # Per-shard LRU of topologies the shard has confirmed, sized to
        # the worker-side session LRU: entries beyond it are stale (the
        # worker evicted the session) and an unbounded set would grow one
        # fingerprint per distinct topology forever.
        self._known_cap = max(
            1, int(self.settings.get("max_sessions", 64))
        )
        self._known: list["OrderedDict[str, None]"] = [
            OrderedDict() for _ in range(self.num_shards)
        ]
        self._started = False

    @property
    def num_shards(self) -> int:
        """Dispatch width (the inline pool counts as one shard)."""
        return max(1, self.shards)

    @property
    def inline(self) -> bool:
        """Whether batches run in-process instead of in worker processes."""
        return self.shards == 0

    def shard_of(self, topology: str) -> int:
        """Stable topology → shard assignment (crc32, process-independent)."""
        return zlib.crc32(topology.encode()) % self.num_shards

    async def start(self) -> None:
        """Spawn and warm the shard executors (or configure inline state)."""
        if self._started:
            return
        if self.inline:
            configure_worker(self.settings)
            self._inline_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-inline"
            )
        else:
            loop = asyncio.get_running_loop()
            for _ in range(self.num_shards):
                ex = ProcessPoolExecutor(
                    max_workers=1,
                    initializer=configure_worker,
                    initargs=(self.settings,),
                )
                # Force the worker to exist (and warm-import) now, not on
                # the first request.
                await loop.run_in_executor(ex, os.getpid)
                self._executors.append(ex)
        self._started = True

    async def _run(self, shard: int, fn, *args):
        """Run ``fn`` on a shard: its process, or the one inline thread."""
        loop = asyncio.get_running_loop()
        if self.inline:
            return await loop.run_in_executor(self._inline_executor, fn, *args)
        return await loop.run_in_executor(self._executors[shard], fn, *args)

    async def solve_batch(
        self, topology: str, requests: list[SolveRequest], graph: dict | None
    ) -> list[dict]:
        """Solve one batch on the topology's shard; returns per-item dicts.

        ``graph`` is the dispatcher's stored payload for the topology
        (``None`` when the store no longer has it); it is attached only
        when the shard has not confirmed the topology, or on the one
        retry after an ``unknown_topology`` answer (worker LRU eviction).
        """
        shard = self.shard_of(topology)
        known = self._known[shard]
        send_graph = graph if topology not in known else None
        if topology in known:
            known.move_to_end(topology)
        payload = {
            "topology": topology,
            "graph": send_graph,
            "requests": requests,
        }
        out = await self._run(shard, solve_batch_payload, payload)
        if out.get("unknown_topology") and send_graph is None:
            known.pop(topology, None)
            if graph is None:
                raise ProtocolError(
                    "unknown-topology",
                    f"topology {topology!r} is not registered on this "
                    "server; resend the request with the full graph",
                    field="topology",
                    status=404,
                )
            payload["graph"] = graph
            out = await self._run(shard, solve_batch_payload, payload)
        if out.get("unknown_topology"):  # pragma: no cover - defensive
            raise ProtocolError(
                "unknown-topology",
                f"shard {shard} could not materialize topology {topology!r}",
                field="topology",
                status=404,
            )
        known[topology] = None
        known.move_to_end(topology)
        while len(known) > self._known_cap:
            known.popitem(last=False)
        items = out["items"]
        spans = out.get("spans")
        for item in items:
            item["shard"] = shard
            if spans is not None:
                # Batch-level tree, shared by reference: every item in the
                # coalesced batch was solved under the same worker root.
                item["spans"] = spans
        return items

    async def stats(self) -> list[dict]:
        """One :func:`worker_stats_payload` per shard (for ``/metrics``).

        Shards are polled concurrently — each answer still queues behind
        that shard's in-flight batch, but a slow shard only costs its own
        latency, not the sum over shards.
        """
        payloads = await asyncio.gather(
            *(self._run(i, worker_stats_payload)
              for i in range(self.num_shards))
        )
        return [
            {"shard": i, **payload} for i, payload in enumerate(payloads)
        ]

    async def close(self) -> None:
        """Graceful drain: finish queued batches, then stop the workers."""
        for ex in self._executors:
            ex.shutdown(wait=True)
        self._executors.clear()
        if self._inline_executor is not None:
            self._inline_executor.shutdown(wait=True)
            self._inline_executor = None
        self._known = [OrderedDict() for _ in range(self.num_shards)]
        self._started = False
