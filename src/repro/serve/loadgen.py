"""Load generation for the serving layer: zipf-skewed solve traffic.

Models the traffic the service is built for — a fleet of users
re-querying a skewed set of network topologies with shifting weight
scenarios.  Topologies are drawn from the :mod:`repro.graphs` family
registry; popularity follows a zipf law (rank ``r`` drawn with
probability proportional to ``1 / (r + 1) ** s``), so a few topologies
are hot (and exercise batching + session reuse) while the tail exercises
registration and worker LRU churn.

Four traffic modes:

* **closed loop** — ``concurrency`` workers each keep exactly one request
  in flight (classic throughput measurement; the benchmark uses this);
* **open loop** — requests fire at a fixed ``rate``/s regardless of
  completions (latency under load, queueing behavior);
* **drift** — closed-loop discipline, but after registering each topology
  the workers send sparse ``/v1/delta`` requests (``drift_edges`` of the
  edges re-jittered against the baseline per request) — the
  weights-drift-slowly traffic the incremental re-solve path exists for.
  A delta answered ``unknown-topology`` (server restart, store eviction)
  degrades to one full ``/v1/solve`` carrying the graph plus the
  equivalent full weight column, counted as a ``reregistrations`` — never
  an error;
* **montecarlo** — closed-loop workers hammering **one** topology with
  ``/v1/solve_batch`` requests of ``batch`` weight-perturbation scenarios
  each (``drift_edges`` of the edges scaled up per scenario) — the
  what-if sweep shape, where each column solves on a plan derived from
  the session's base plan.
  With ``binary=True`` the weight columns ride the binary frame encoding
  (:func:`repro.serve.protocol.pack_frame`) instead of JSON decimal text,
  and responses are requested framed too.

Each worker holds one keep-alive connection (:class:`HttpClient`, asyncio
streams, stdlib only).  The first request for a topology ships the full
graph; subsequent requests reference the returned ``topology`` fingerprint
and attach one of ``scenarios`` per-topology weight columns — the
repeated-reweight pattern.  If the server answers ``unknown-topology``
(restart, store eviction), the generator re-registers transparently and
counts a ``reregistrations`` instead of an error.

The summary dict (also printed by ``python -m repro loadgen``) reports
throughput, latency percentiles, observed batch sizes, and — the CI smoke
gate — ``protocol_errors``.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field

from repro.serve.protocol import (
    FRAME_CONTENT_TYPE,
    PROTOCOL_VERSION,
    graph_payload,
    pack_frame,
    unpack_frame,
)

__all__ = ["HttpClient", "LoadgenConfig", "run_loadgen"]


class HttpClient:
    """A minimal keep-alive HTTP/1.1 JSON client on asyncio streams.

    Speaks both wire encodings: :meth:`request` sends plain JSON,
    :meth:`request_framed` sends a binary frame (weight arrays as raw
    float64) and asks for a framed response; either way the caller gets
    back ``(status, payload dict)``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        """Open (or reopen) the connection."""
        await self.close()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        """Close the connection if open."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._reader = self._writer = None

    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        """One JSON request/response round trip (reconnects once)."""
        body = b"" if payload is None else json.dumps(payload).encode()
        return await self._round_trip(
            method, path, body, "application/json", accept_frame=False
        )

    async def request_framed(
        self, method: str, path: str, header: dict, arrays: list
    ) -> tuple[int, dict]:
        """One binary-framed round trip: request and response framed.

        ``header`` is the request body with ``{"__frame__": k}`` nodes
        standing for ``arrays[k]`` (see
        :func:`repro.serve.protocol.pack_frame`); the ``Accept`` header
        asks the server to frame its response, which is decoded back to
        the payload dict transparently.
        """
        body = pack_frame(header, arrays)
        return await self._round_trip(
            method, path, body, FRAME_CONTENT_TYPE, accept_frame=True
        )

    async def _round_trip(
        self,
        method: str,
        path: str,
        body: bytes,
        content_type: str,
        accept_frame: bool,
    ) -> tuple[int, dict]:
        """Send one prepared request; reconnects on a dead socket."""
        if self._writer is None:
            await self.connect()
        accept = FRAME_CONTENT_TYPE if accept_frame else "application/json"
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Accept: {accept}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            self._writer.write(head + body)
            await self._writer.drain()
            return await self._read_response()
        except (
            ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError
        ):
            # One transparent retry on a fresh connection (the server may
            # have closed an idle keep-alive socket under us).
            await self.connect()
            self._writer.write(head + body)
            await self._writer.drain()
            return await self._read_response()

    async def _read_response(self) -> tuple[int, dict]:
        """Parse one status line + headers + Content-Length body.

        A body labeled with the frame content type is decoded with
        :func:`repro.serve.protocol.unpack_frame`; anything else is JSON.
        """
        line = await self._reader.readline()
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(line.decode("latin-1").split()[1])
        length = 0
        close = False
        framed = False
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            key = name.strip().lower()
            if key == "content-length":
                length = int(value.strip())
            elif key == "connection" and value.strip().lower() == "close":
                close = True
            elif key == "content-type":
                framed = value.strip().lower().startswith(FRAME_CONTENT_TYPE)
        body = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        if not body:
            return status, {}
        return status, unpack_frame(body) if framed else json.loads(body)


@dataclass
class LoadgenConfig:
    """Tunables of one load-generation run (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8421
    #: Stop after this many seconds (or after ``requests``, if set).
    duration_s: float = 10.0
    requests: int | None = None
    #: ``"closed"`` (concurrency workers), ``"open"`` (fixed rate),
    #: ``"drift"`` (closed-loop sparse ``/v1/delta`` traffic) or
    #: ``"montecarlo"`` (closed-loop batched weight scenarios against one
    #: topology via ``/v1/solve_batch``).
    mode: str = "closed"
    concurrency: int = 4
    rate: float = 20.0
    #: Scenarios per ``/v1/solve_batch`` request (``montecarlo`` mode).
    batch: int = 8
    #: Ship weight columns as binary frames (``montecarlo`` mode).
    binary: bool = False
    #: Topology universe: families cycled, ``topologies`` instances of
    #: roughly ``size`` nodes, zipf-skewed popularity with exponent
    #: ``zipf_s``.
    families: tuple[str, ...] = ("cycle_chords", "grid")
    size: int = 120
    topologies: int = 8
    zipf_s: float = 1.1
    #: Distinct weight scenarios cycled per topology (the reweight knob);
    #: 0 always solves the registered baseline weights.
    scenarios: int = 4
    #: Fraction of each topology's edges re-jittered per ``drift`` delta.
    drift_edges: float = 0.01
    seed: int = 0
    eps: float = 0.5
    variant: str = "improved"
    backend: str | None = None
    engine: str | None = None
    #: Ask the server for its per-phase ``timings`` block on every
    #: request and fold the answers into the summary's
    #: ``server_phases_ms`` — where a run's latency actually went
    #: (parse / batch wait / dispatch / solve phases / serialize).
    timings: bool = True


class _Traffic:
    """Pre-built topology universe + seeded samplers (shared by workers)."""

    def __init__(self, cfg: LoadgenConfig) -> None:
        from repro.graphs.families import make_family_instance

        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.topologies: list[dict] = []
        for i in range(cfg.topologies):
            family = cfg.families[i % len(cfg.families)]
            graph = make_family_instance(family, cfg.size, seed=cfg.seed + i)
            payload = graph_payload(graph)
            base = [w for _, _, w in payload["edges"]]
            jitter = random.Random(f"{cfg.seed}:{i}:scenario")
            columns = [
                [w * jitter.uniform(0.8, 1.25) for w in base]
                for _ in range(cfg.scenarios)
            ]
            self.topologies.append({
                "family": family,
                "graph": payload,
                "columns": columns,
                "drift": random.Random(f"{cfg.seed}:{i}:drift"),
                "key": None,  # filled from the first response
                "uses": 0,
            })
        weights = [1.0 / (rank + 1) ** cfg.zipf_s
                   for rank in range(cfg.topologies)]
        total = sum(weights)
        self.popularity = [w / total for w in weights]

    def next_request(self) -> tuple[dict, str, dict, dict | None]:
        """Sample one topology; build ``(topo, path, body, fallback)``.

        ``fallback`` is set only for drift-mode delta bodies: the full
        ``/v1/solve`` equivalent (graph + patched weight column) the
        client degrades to when the server answers ``unknown-topology``.
        """
        (index,) = self.rng.choices(
            range(len(self.topologies)), weights=self.popularity
        )
        topo = self.topologies[index]
        body = self._query_params()
        if self.cfg.mode == "drift" and topo["key"] is not None:
            return (topo, "/v1/delta") + self._drift_body(topo, body)
        if topo["key"] is None:
            body["graph"] = topo["graph"]
        else:
            body["topology"] = topo["key"]
        if self.cfg.mode != "drift" and topo["columns"]:
            body["weights"] = topo["columns"][topo["uses"] % len(topo["columns"])]
        topo["uses"] += 1
        return topo, "/v1/solve", body, None

    def _query_params(self) -> dict:
        """The shared query-parameter skeleton of every generated request."""
        body: dict = {
            "protocol": PROTOCOL_VERSION,
            "eps": self.cfg.eps,
            "variant": self.cfg.variant,
        }
        if self.cfg.backend is not None:
            body["backend"] = self.cfg.backend
        if self.cfg.engine is not None:
            body["engine"] = self.cfg.engine
        if self.cfg.timings:
            body["timings"] = True
        return body

    def montecarlo_request(self) -> tuple[dict, dict, list]:
        """One ``/v1/solve_batch`` body of ``batch`` perturbed scenarios.

        Always targets topology 0 (the Monte-Carlo shape is one network,
        many weight what-ifs).  Each scenario scales ``drift_edges`` of
        the edges up by a random factor against the registered baseline.
        Returns ``(topo, header, arrays)``: the weight columns live in
        ``arrays`` with ``{"__frame__": k}`` references in the header, so
        the caller either ships them as a binary frame directly or
        substitutes them back for the plain-JSON encoding.
        """
        topo = self.topologies[0]
        rng = topo["drift"]
        edges = topo["graph"]["edges"]
        base = [w for _, _, w in edges]
        k = min(len(base), max(1, round(self.cfg.drift_edges * len(base))))
        sub_requests = []
        arrays: list[list[float]] = []
        for _ in range(max(1, self.cfg.batch)):
            column = list(base)
            for i in rng.sample(range(len(base)), k):
                column[i] = column[i] * rng.uniform(1.0, 3.0)
            item = self._query_params()
            if topo["key"] is None:
                # Registration round: every scenario carries the graph
                # (items of a batch are handled concurrently, so only the
                # first carrying it would race the topology store).
                item["graph"] = topo["graph"]
            else:
                item["topology"] = topo["key"]
            item["weights"] = {"__frame__": len(arrays)}
            arrays.append(column)
            sub_requests.append(item)
            topo["uses"] += 1
        return topo, {"requests": sub_requests}, arrays

    def _drift_body(self, topo: dict, body: dict) -> tuple[dict, dict]:
        """One sparse delta against the baseline, plus its full fallback.

        Each delta re-jitters ``drift_edges`` of the edges relative to the
        *registered* weights — the diff-against-base semantics
        ``/v1/delta`` defines, so consecutive deltas are independent and a
        lost/retried one changes nothing.
        """
        edges = topo["graph"]["edges"]
        rng = topo["drift"]
        k = min(len(edges), max(1, round(self.cfg.drift_edges * len(edges))))
        chosen = rng.sample(range(len(edges)), k)
        column = [w for _, _, w in edges]
        delta = []
        for i in chosen:
            u, v, w = edges[i]
            column[i] = w * rng.uniform(0.8, 1.25)
            delta.append([u, v, column[i]])
        body["topology"] = topo["key"]
        body["delta"] = delta
        fallback = {
            k_: v_ for k_, v_ in body.items()
            if k_ not in ("topology", "delta")
        }
        fallback["graph"] = topo["graph"]
        fallback["weights"] = column
        topo["uses"] += 1
        return body, fallback


@dataclass
class _Tally:
    """Mutable run accounting shared by the worker tasks."""

    sent: int = 0
    ok: int = 0
    deltas: int = 0
    frames: int = 0
    protocol_errors: int = 0
    transport_errors: int = 0
    reregistrations: int = 0
    error_codes: dict = field(default_factory=dict)
    latencies_s: list = field(default_factory=list)
    batch_sizes: list = field(default_factory=list)
    server_phases: dict = field(default_factory=dict)

    def record_error(self, code: str) -> None:
        """Count one protocol error by code."""
        self.protocol_errors += 1
        self.error_codes[code] = self.error_codes.get(code, 0) + 1

    def record_timings(self, timings) -> None:
        """Fold one response's ``timings`` block into the phase totals."""
        if not isinstance(timings, dict):
            return
        for name, cell in timings.items():
            if not isinstance(cell, dict):
                continue
            slot = self.server_phases.setdefault(name, [0, 0.0])
            slot[0] += int(cell.get("count", 0))
            slot[1] += float(cell.get("total_ms", 0.0))


async def _issue_batch(
    client: HttpClient, traffic: _Traffic, tally: _Tally
) -> None:
    """Send one montecarlo ``/v1/solve_batch``; account per scenario.

    ``ok`` counts successful *scenarios* (sub-responses), so montecarlo
    throughput is solves per second, comparable with the other modes.
    """
    cfg = traffic.cfg
    topo, header, arrays = traffic.montecarlo_request()
    tally.sent += 1
    t0 = time.perf_counter()
    try:
        if cfg.binary:
            tally.frames += 1
            status, payload = await client.request_framed(
                "POST", "/v1/solve_batch", header, arrays
            )
        else:
            plain = {"requests": [
                {**item, "weights": arrays[item["weights"]["__frame__"]]}
                for item in header["requests"]
            ]}
            status, payload = await client.request(
                "POST", "/v1/solve_batch", plain
            )
    except (OSError, asyncio.IncompleteReadError, ValueError):
        tally.transport_errors += 1
        await client.close()
        return
    tally.latencies_s.append(time.perf_counter() - t0)
    responses = payload.get("responses")
    if status != 200 or not isinstance(responses, list):
        error = payload.get("error") or {}
        tally.record_error(error.get("code", f"http-{status}"))
        return
    for item in responses:
        error = item.get("error")
        if item.get("status") == 200 and not error:
            topo["key"] = item.get("topology", topo["key"])
            tally.ok += 1
            tally.record_timings(item.get("timings"))
            server = item.get("server", {})
            if "batch_size" in server:
                tally.batch_sizes.append(server["batch_size"])
        elif (error or {}).get("code") == "unknown-topology":
            # Store/worker eviction: re-register on the next request.
            topo["key"] = None
            tally.reregistrations += 1
        else:
            tally.record_error(
                (error or {}).get("code", f"http-{item.get('status')}")
            )


async def _issue(
    client: HttpClient, traffic: _Traffic, tally: _Tally
) -> None:
    """Send one sampled request and account for its outcome."""
    if traffic.cfg.mode == "montecarlo":
        await _issue_batch(client, traffic, tally)
        return
    topo, path, body, fallback = traffic.next_request()
    tally.sent += 1
    if path == "/v1/delta":
        tally.deltas += 1
    t0 = time.perf_counter()
    try:
        status, payload = await client.request("POST", path, body)
    except (OSError, asyncio.IncompleteReadError, ValueError):
        tally.transport_errors += 1
        await client.close()
        return
    tally.latencies_s.append(time.perf_counter() - t0)
    error = payload.get("error")
    if status == 200 and not error:
        topo["key"] = payload.get("topology", topo["key"])
        tally.ok += 1
        tally.record_timings(payload.get("timings"))
        server = payload.get("server", {})
        if "batch_size" in server:
            tally.batch_sizes.append(server["batch_size"])
        return
    code = (error or {}).get("code", f"http-{status}")
    if code == "unknown-topology" and "topology" in body:
        # Server forgot the topology (restart/eviction): re-register
        # transparently, as a real client would.  A delta request
        # degrades immediately to its full-solve fallback (graph + the
        # equivalent full weight column) on the same connection.  Keyed
        # off the request we sent, not ``topo["key"]`` — a concurrent
        # worker may already have cleared it for the same eviction.
        topo["key"] = None
        tally.reregistrations += 1
        if fallback is not None:
            t1 = time.perf_counter()
            try:
                status, payload = await client.request(
                    "POST", "/v1/solve", fallback
                )
            except (OSError, asyncio.IncompleteReadError, ValueError):
                tally.transport_errors += 1
                await client.close()
                return
            tally.latencies_s.append(time.perf_counter() - t1)
            error = payload.get("error")
            if status == 200 and not error:
                topo["key"] = payload.get("topology", topo["key"])
                tally.ok += 1
                tally.record_timings(payload.get("timings"))
                return
            tally.record_error(
                (error or {}).get("code", f"http-{status}")
            )
        return
    tally.record_error(code)


async def _closed_loop(cfg, traffic, tally, deadline) -> None:
    """``concurrency`` workers, one request in flight each."""
    async def worker() -> None:
        """One closed-loop client: a single request in flight."""
        client = HttpClient(cfg.host, cfg.port)
        try:
            while time.perf_counter() < deadline and (
                cfg.requests is None or tally.sent < cfg.requests
            ):
                await _issue(client, traffic, tally)
        finally:
            await client.close()

    await asyncio.gather(*(worker() for _ in range(cfg.concurrency)))


async def _open_loop(cfg, traffic, tally, deadline) -> None:
    """Fixed-rate arrivals over a small connection pool."""
    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(max(2, cfg.concurrency)):
        pool.put_nowait(HttpClient(cfg.host, cfg.port))
    pending: set[asyncio.Task] = set()

    async def fire() -> None:
        """One open-loop arrival on a pooled connection."""
        client = await pool.get()
        try:
            await _issue(client, traffic, tally)
        finally:
            pool.put_nowait(client)

    interval = 1.0 / max(cfg.rate, 0.001)
    next_at = time.perf_counter()
    while time.perf_counter() < deadline and (
        cfg.requests is None or tally.sent + len(pending) < cfg.requests
    ):
        now = time.perf_counter()
        if now < next_at:
            await asyncio.sleep(next_at - now)
        next_at += interval
        task = asyncio.ensure_future(fire())
        pending.add(task)
        task.add_done_callback(pending.discard)
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    while not pool.empty():
        await pool.get_nowait().close()


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a sample list (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


async def _run(cfg: LoadgenConfig) -> dict:
    """Drive one load-generation run and summarize it."""
    # Fail fast on an unreachable/unhealthy server: one probe up front
    # beats a run's worth of per-request transport errors.
    probe = HttpClient(cfg.host, cfg.port)
    try:
        status, _ = await probe.request("GET", "/healthz")
        if status != 200:
            raise ConnectionRefusedError(
                f"/healthz answered {status}; is this a repro serve "
                "instance?"
            )
    finally:
        await probe.close()
    traffic = _Traffic(cfg)
    tally = _Tally()
    t0 = time.perf_counter()
    deadline = t0 + cfg.duration_s
    if cfg.mode == "open":
        await _open_loop(cfg, traffic, tally, deadline)
    elif cfg.mode in ("closed", "drift", "montecarlo"):
        await _closed_loop(cfg, traffic, tally, deadline)
    else:
        raise ValueError(
            f"mode must be 'closed', 'open', 'drift' or 'montecarlo', "
            f"got {cfg.mode!r}"
        )
    wall = time.perf_counter() - t0
    lat = tally.latencies_s
    return {
        "mode": cfg.mode,
        "duration_s": round(wall, 3),
        "requests": tally.sent,
        "ok": tally.ok,
        "deltas": tally.deltas,
        "frames": tally.frames,
        "protocol_errors": tally.protocol_errors,
        "transport_errors": tally.transport_errors,
        "reregistrations": tally.reregistrations,
        "error_codes": dict(sorted(tally.error_codes.items())),
        "throughput_rps": round(tally.ok / wall, 3) if wall > 0 else 0.0,
        "latency_ms": {
            "mean": round(sum(lat) / len(lat) * 1000, 3) if lat else 0.0,
            "p50": round(_percentile(lat, 0.50) * 1000, 3),
            "p90": round(_percentile(lat, 0.90) * 1000, 3),
            "p99": round(_percentile(lat, 0.99) * 1000, 3),
            "max": round(max(lat) * 1000, 3) if lat else 0.0,
        },
        "batch_size": {
            "mean": round(
                sum(tally.batch_sizes) / len(tally.batch_sizes), 3
            ) if tally.batch_sizes else 0.0,
            "max": max(tally.batch_sizes, default=0),
        },
        "server_phases_ms": {
            name: {
                "count": count,
                "total_ms": round(total, 3),
                "mean_ms": round(total / count, 3) if count else 0.0,
            }
            for name, (count, total) in sorted(tally.server_phases.items())
        },
        "topologies": cfg.topologies,
        "zipf_s": cfg.zipf_s,
        "scenarios": cfg.scenarios,
        "drift_edges": cfg.drift_edges,
    }


def run_loadgen(cfg: LoadgenConfig, spawn=None) -> dict:
    """Run the generator (blocking); optionally spawn the target server.

    ``spawn`` is a :class:`repro.serve.app.ServeConfig`: the server is
    started in-process on an ephemeral port, the run is pointed at it, and
    it is drained afterwards — the one-command path the CI smoke job uses
    (``python -m repro loadgen --spawn ... --check``).
    """
    async def main() -> dict:
        """Optionally boot the server, then run the generator."""
        if spawn is None:
            return await _run(cfg)
        from repro.serve.app import ServeApp
        from repro.serve.server import HttpServer

        server = HttpServer(ServeApp(spawn), port=0)
        await server.start()
        cfg.host, cfg.port = server.host, server.port
        try:
            return await _run(cfg)
        finally:
            await server.aclose()

    return asyncio.run(main())
