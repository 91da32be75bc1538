"""The serving application: routes, topology store, batching dispatch.

:class:`ServeApp` is transport-free — it maps ``(method, path, body)`` to
``(status, payload)`` dicts — so the HTTP glue (:mod:`repro.serve.server`)
stays a thin byte shuffler and the whole route surface is testable without
sockets.  Routes:

========================  ====================================================
``POST /v1/solve``        one solve request (:mod:`repro.serve.protocol`)
``POST /v1/solve_batch``  ``{"requests": [...]}``, answered per item
``POST /v1/delta``        sparse re-solve: topology fingerprint + weight
                          diffs against the registered baseline
                          (:func:`repro.serve.protocol.parse_delta_request`)
``GET /healthz``          liveness + config summary
``GET /metrics``          counters, latency + batch-size histograms,
                          batcher stats, per-shard worker/session stats,
                          and the aggregated per-phase span breakdown
                          (:mod:`repro.obs`)
``GET /backends``         the fixed table of execution backends
                          (:func:`repro.runtime.registry.registered_payload`)
========================  ====================================================

A POST body is decoded once, as JSON or, under
:data:`~repro.serve.protocol.FRAME_CONTENT_TYPE`, as a binary frame, and
the route gets the decoded object.  A solve request flows: schema
validation in the event loop (cheap) →
topology resolution against the app's edge-payload store → the
per-topology :class:`~repro.serve.batcher.MicroBatcher` → one batch
inside the topology's shard
(:class:`~repro.serve.workers.ShardedWorkerPool`), solved request by
request on the topology's warm
:class:`~repro.runtime.session.SolverSession`.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from dataclasses import dataclass

import repro
from repro import obs
from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    FRAME_CONTENT_TYPE,
    PROTOCOL_VERSION,
    ProtocolError,
    SolveRequest,
    error_payload,
    parse_delta_request,
    parse_solve_request,
    unpack_frame,
)
from repro.serve.workers import ShardedWorkerPool

__all__ = ["ServeApp", "ServeConfig"]

#: The route surface (also the allow-list for per-route metric labels —
#: method included, so unique client-minted method tokens cannot create
#: unbounded histogram keys any more than unique paths can).
_ROUTES = frozenset({
    ("POST", "/v1/solve"), ("POST", "/v1/solve_batch"),
    ("POST", "/v1/delta"),
    ("GET", "/healthz"), ("GET", "/metrics"), ("GET", "/backends"),
})


@dataclass
class ServeConfig:
    """Tunables of one serving instance (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8421
    #: Worker processes (topology shards); 0 = inline in-process execution.
    workers: int = 2
    #: Micro-batching knobs: flush at this many coalesced requests ...
    max_batch: int = 16
    #: ... or after this many milliseconds, whichever comes first.
    max_delay_ms: float = 2.0
    #: Session defaults for requests that leave backend/engine unset.
    backend: str = "auto"
    engine: str = "local"
    #: Per-session plan LRU (weight scenarios cached per topology).
    max_plans: int = 8
    #: Per-worker session LRU (topologies cached per shard).
    max_sessions: int = 64
    #: Dispatcher-side raw-edge store cap (topology registrations).
    max_topologies: int = 128
    #: Largest accepted request body, in bytes.
    max_body: int = 64 * 1024 * 1024
    #: Cap on ``/v1/solve_batch`` fan-in.
    max_batch_request: int = 256
    #: Structured tracing (:mod:`repro.obs`): feeds the per-phase section
    #: of ``GET /metrics`` and the opt-in per-request ``timings`` block.
    #: Never touches result payloads — responses are bit-identical with
    #: tracing on or off.
    tracing: bool = True

    def worker_settings(self) -> dict:
        """The knobs shipped to :func:`repro.serve.workers.configure_worker`."""
        return {
            "backend": self.backend,
            "engine": self.engine,
            "max_plans": self.max_plans,
            "max_sessions": self.max_sessions,
            "tracing": self.tracing,
        }


class ServeApp:
    """Route handling + dispatch state for one server (see module doc)."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self.pool = ShardedWorkerPool(
            shards=self.config.workers,
            settings=self.config.worker_settings(),
        )
        self.batcher = MicroBatcher(
            self._flush,
            max_batch=self.config.max_batch,
            max_delay=self.config.max_delay_ms / 1000.0,
        )
        #: topology fingerprint -> canonical graph payload dict (LRU).
        self._topologies: "OrderedDict[str, dict]" = OrderedDict()
        #: Aggregated span phases: name -> [count, total_seconds] — the
        #: ``phases`` section of ``/metrics``.  Keys come from this
        #: codebase's own span taxonomy (a closed set), never from
        #: client-minted tokens.
        self._phases: "dict[str, list]" = {}
        # The dispatcher-side tracer; worker processes install their own
        # via configure_worker (the setting rides in worker_settings()).
        if self.config.tracing:
            obs.enable()
        else:
            obs.disable()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def startup(self) -> None:
        """Start (and warm) the worker pool."""
        await self.pool.start()
        self._started_at = time.monotonic()

    async def shutdown(self) -> None:
        """Graceful drain: flush pending batches, then stop the workers."""
        await self.batcher.drain()
        await self.pool.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def handle(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        """Route one request; always returns ``(status, JSON payload)``.

        ``headers`` (lowercase names) is optional: a ``Content-Type`` of
        :data:`~repro.serve.protocol.FRAME_CONTENT_TYPE` makes a POST
        route decode its body as a binary frame instead of JSON.  Either
        way the body is decoded once, to the same object, so framed and
        plain requests are indistinguishable past that point.  Response
        *encoding* negotiation (``Accept``) lives in the transport, which
        turns the returned payload into a frame when asked; this layer
        always returns the payload dict.
        """
        self.metrics.inc("http.requests")
        t0 = time.perf_counter()
        try:
            content_type = (headers or {}).get("content-type", "")
            framed = content_type.split(";", 1)[0].strip().lower() \
                == FRAME_CONTENT_TYPE
            if framed:
                self.metrics.inc("http.frame_requests")
            status, payload = await self._route(method, path, body, framed)
        except ProtocolError as exc:
            status, payload = exc.status, exc.payload()
        except Exception as exc:  # noqa: BLE001 - the wire gets JSON, not a trace
            status = 500
            payload = error_payload(
                "internal-error", f"{type(exc).__name__}: {exc}"
            )
        if status >= 400:
            self.metrics.inc("http.errors")
            code = payload.get("error", {}).get("code", "unknown")
            self.metrics.inc(f"error.{code}")
        # Label by the route table, not raw request tokens: untrusted
        # methods/paths must not mint unbounded histogram keys in a
        # long-running server.
        label = (
            f"{method} {path}" if (method, path) in _ROUTES else "other"
        )
        tracer = obs.get_tracer()
        if tracer.enabled:
            # Serve consumes its spans inline (the timings block and the
            # /metrics phases aggregate) — drop the collected roots so a
            # long-running server never accumulates per-request trees.
            tracer.clear()
        self.metrics.observe(label, time.perf_counter() - t0)
        return status, payload

    async def _route(
        self, method: str, path: str, body: bytes, framed: bool
    ) -> tuple[int, dict]:
        """The route table (exceptions handled by :meth:`handle`).

        A POST route gets its body decoded once, as a frame or as JSON,
        with the decoding time; GET routes read no body.
        """
        post = {
            "/v1/solve": self._solve_route,
            "/v1/solve_batch": self._solve_batch_route,
            "/v1/delta": self._delta_route,
        }.get(path)
        if post is not None and method == "POST":
            t0 = time.perf_counter()
            obj = unpack_frame(body) if framed else self._parse_body(body)
            return await post(obj, time.perf_counter() - t0)
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if path == "/metrics" and method == "GET":
            return 200, await self._metrics()
        if path == "/backends" and method == "GET":
            from repro.core.k_ecss import MAX_K
            from repro.runtime.registry import registered_payload

            return 200, {
                "protocol": PROTOCOL_VERSION,
                "backends": registered_payload(),
                "max_k": MAX_K,
            }
        if post is not None:
            raise ProtocolError(
                "method-not-allowed", f"{path} expects POST", status=405
            )
        raise ProtocolError(
            "not-found", f"no route for {method} {path}", status=404
        )

    def _parse_body(self, body: bytes):
        """Decode a JSON request body with a structured error on failure."""
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                "bad-json", f"request body is not valid JSON: {exc}"
            ) from None

    async def _solve_route(
        self, obj: object, decode_s: float
    ) -> tuple[int, dict]:
        with obs.timer("serve.parse") as parse_clock:
            request = parse_solve_request(obj)
        return await self._solve_one(
            request, parse_s=decode_s + parse_clock.duration_s
        )

    async def _delta_route(
        self, obj: object, decode_s: float
    ) -> tuple[int, dict]:
        """Sparse re-solve: rides the same per-topology batching path as
        ``/v1/solve`` (delta requests coalesce with full requests for the
        topology), but can never register — an unknown fingerprint is the
        structured 404 that tells the client to degrade to a full solve."""
        with obs.timer("serve.parse") as parse_clock:
            request = parse_delta_request(obj)
        self.metrics.inc("delta.requests")
        return await self._solve_one(
            request, parse_s=decode_s + parse_clock.duration_s
        )

    async def _solve_batch_route(
        self, obj: object, decode_s: float
    ) -> tuple[int, dict]:
        """Answer each item on its own; the envelope's ``decode_s`` is
        shared by every item, so no item's ``serve.parse`` carries it."""
        if not isinstance(obj, dict) or not isinstance(
            obj.get("requests"), list
        ):
            raise ProtocolError(
                "bad-request", 'body must be {"requests": [...]}',
                field="requests",
            )
        if len(obj["requests"]) > self.config.max_batch_request:
            raise ProtocolError(
                "batch-too-large",
                f"at most {self.config.max_batch_request} requests per "
                "batch", field="requests",
            )
        async def answer(item) -> tuple[int, dict]:
            """One per-item outcome: parse and solve errors stay isolated,
            never failing (or discarding the work of) their batch-mates."""
            try:
                with obs.timer("serve.parse") as parse_clock:
                    request = parse_solve_request(item)
                return await self._solve_one(
                    request, parse_s=parse_clock.duration_s
                )
            except ProtocolError as exc:
                return exc.status, exc.payload()
            except Exception as exc:  # noqa: BLE001 - isolate, don't sink mates
                return 500, error_payload(
                    "internal-error", f"{type(exc).__name__}: {exc}"
                )

        outcomes = await asyncio.gather(
            *(answer(item) for item in obj["requests"])
        )
        responses = [
            {"status": status, **payload} for status, payload in outcomes
        ]
        return 200, {"protocol": PROTOCOL_VERSION, "responses": responses}

    async def _solve_one(
        self, request: SolveRequest, parse_s: float = 0.0
    ) -> tuple[int, dict]:
        """Register the topology, batch the request, shape the response."""
        self.metrics.inc("solve.requests")
        if request.graph is not None:
            self._register(request.topology, request.graph)
        elif request.topology not in self._topologies:
            # Fail fast in the event loop: the shards cannot know a
            # topology the dispatcher never stored.
            self.metrics.inc("solve.unknown_topology")
            raise ProtocolError(
                "unknown-topology",
                f"topology {request.topology!r} is not registered on this "
                "server; resend the request with the full graph",
                field="topology",
                status=404,
            )
        with obs.timer("serve.batch_wait") as wait_clock:
            item = await self.batcher.submit(request.topology, request)
        spans = item.pop("spans", None)
        dispatch_s = item.pop("dispatch_s", None)
        if obs.get_tracer().enabled:
            self._observe_phase("serve.parse", parse_s)
            self._observe_phase("serve.batch_wait", wait_clock.duration_s)
        if "error" in item:
            status = item.get("status", 500)
            payload = error_payload(
                item["error"]["code"], item["error"]["message"]
            )
            payload["topology"] = request.topology
            return status, payload
        self.metrics.inc("solve.ok")
        response = {
            "protocol": PROTOCOL_VERSION,
            "topology": request.topology,
            "result": item["result"],
            "server": {
                "shard": item["shard"],
                "batch_size": item["batch_size"],
            },
        }
        if request.timings:
            timings = self._request_timings(
                spans, parse_s, wait_clock.duration_s, dispatch_s
            )
            if timings is not None:
                response["timings"] = timings
        return 200, response

    def _observe_phase(self, name: str, seconds: float, count: int = 1) -> None:
        entry = self._phases.setdefault(name, [0, 0.0])
        entry[0] += count
        entry[1] += seconds

    def _request_timings(
        self,
        spans: list | None,
        parse_s: float,
        wait_s: float,
        dispatch_s: float | None,
    ) -> dict | None:
        """The per-request ``timings`` block (opt-in via ``"timings": true``).

        A flat phase -> ``{count, total_ms}`` map over the request's whole
        path: event-loop phases measured here (``serve.parse``;
        ``serve.batch_wait``, submit-to-result, so it *contains* the
        dispatch round-trip), the pool round-trip (``serve.dispatch``,
        shared by the coalesced batch), and everything beneath the
        worker's ``worker.solve_batch`` span tree.  ``None`` when tracing
        is off — the block is diagnostics, never part of the result's
        bit-identity contract.
        """
        if not obs.get_tracer().enabled:
            return None
        phases: dict[str, list] = {}
        if spans:
            obs.phase_totals(
                [obs.Span.from_dict(tree) for tree in spans], into=phases
            )
        phases["serve.parse"] = [1, parse_s]
        phases["serve.batch_wait"] = [1, wait_s]
        if dispatch_s is not None:
            phases["serve.dispatch"] = [1, dispatch_s]
        return {
            name: {"count": count, "total_ms": round(total * 1000.0, 3)}
            for name, (count, total) in sorted(phases.items())
        }

    def _register(self, topology: str, graph: dict) -> None:
        """Remember a topology's graph payload (LRU-capped dispatcher store)."""
        if topology not in self._topologies:
            self.metrics.inc("topologies.registered")
        self._topologies[topology] = graph
        self._topologies.move_to_end(topology)
        while len(self._topologies) > self.config.max_topologies:
            self._topologies.popitem(last=False)
            self.metrics.inc("topologies.evicted")

    async def _flush(self, topology: str, requests: list) -> list[dict]:
        """Batcher flush hook: one worker round-trip per coalesced batch.

        The graph payload comes from the store, falling back to any
        request in the batch that carried it inline — a registration
        evicted from the LRU while its own request waited in the batcher
        must still be solvable.
        """
        graph = self._topologies.get(topology)
        if graph is None:
            graph = next(
                (r.graph for r in requests if r.graph is not None), None
            )
        t0 = time.perf_counter()
        items = await self.pool.solve_batch(topology, requests, graph)
        dispatch_s = time.perf_counter() - t0
        for item in items:
            item["batch_size"] = len(requests)
            item["dispatch_s"] = dispatch_s
        # Aggregate the worker's span tree into the /metrics phases once
        # per *batch* (the tree is shared by every item in it — summing
        # per item would overstate totals by the coalescing factor).
        spans = items[0].get("spans") if items else None
        if spans:
            obs.phase_totals(
                [obs.Span.from_dict(tree) for tree in spans],
                into=self._phases,
            )
            self._observe_phase("serve.dispatch", dispatch_s)
        self.metrics.inc("solve.batches")
        self.metrics.observe_size("batch.coalesced", len(requests))
        return items

    # ------------------------------------------------------------------
    # introspection routes
    # ------------------------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "status": "ok",
            "version": repro.__version__,
            "workers": self.pool.num_shards,
            "inline": self.pool.inline,
            "topologies": len(self._topologies),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }

    async def _metrics(self) -> dict:
        workers = await self.pool.stats()
        return {
            "protocol": PROTOCOL_VERSION,
            **self.metrics.snapshot(),
            "batcher": self.batcher.snapshot(),
            "phases": {
                name: {"count": count, "total_s": round(total, 6)}
                for name, (count, total) in sorted(self._phases.items())
            },
            "topologies": {
                "stored": len(self._topologies),
                "cap": self.config.max_topologies,
            },
            "workers": workers,
        }
