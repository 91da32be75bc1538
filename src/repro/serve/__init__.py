"""``repro.serve`` — the async batching solver service.

The serving layer turns the runtime layer (:mod:`repro.runtime`) into a
system: a JSON-over-HTTP service (stdlib-only, hand-rolled HTTP/1.1 on
``asyncio`` streams) that accepts 2-ECSS solve requests, routes them by
topology fingerprint to a pool of worker processes, and — inside each
worker — solves concurrently-pending requests for the same
:class:`~repro.runtime.handle.GraphHandle` as one batch on one warm
:class:`~repro.runtime.session.SolverSession`, so plan caches are shared
across users.  Dory & Ghaffari's solver is exactly the
kind a network-operations service queries repeatedly — same topology,
shifting weights and failures — and that is the traffic shape every layer
here is optimized for.

Module map (one responsibility each):

* :mod:`~repro.serve.protocol` — versioned request/response schema,
  structured errors, canonical (bit-identical through the wire) result
  serialization;
* :mod:`~repro.serve.batcher` — per-topology micro-batching with
  ``max_batch`` / ``max_delay`` knobs;
* :mod:`~repro.serve.workers` — topology-sharded process pool, warm
  imports, per-worker session LRU, graceful drain;
* :mod:`~repro.serve.app` — routes (``/v1/solve``, ``/v1/solve_batch``,
  ``/healthz``, ``/metrics``, ``/backends``) over a transport-free
  dispatch core;
* :mod:`~repro.serve.server` — the asyncio HTTP transport;
* :mod:`~repro.serve.metrics` — counters + latency histograms;
* :mod:`~repro.serve.loadgen` — zipf-skewed closed/open-loop traffic
  generation.

CLI: ``python -m repro serve`` / ``python -m repro loadgen``.  The wire
bit-identity contract is held by ``tests/test_serve_wire.py``.  Latency
through warm sharded sessions is measured end to end by perfbench's
``serve_open`` workload (a spawned ``serve --workers 1`` under an open
loop), which the paired A/B in ``tools/perf_ab.py`` gates.

The serving layer sits *outside* the paper's model (a CONGEST algorithm
does not have an HTTP front door); see ``docs/PAPER_MAP.md``.
"""

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.batcher import MicroBatcher
from repro.serve.loadgen import HttpClient, LoadgenConfig, run_loadgen
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    SolveRequest,
    parse_solve_request,
    result_to_payload,
)
from repro.serve.server import HttpServer, run_server
from repro.serve.workers import ShardedWorkerPool

__all__ = [
    "PROTOCOL_VERSION",
    "HttpClient",
    "HttpServer",
    "LatencyHistogram",
    "LoadgenConfig",
    "MicroBatcher",
    "ProtocolError",
    "ServeApp",
    "ServeConfig",
    "ServeMetrics",
    "ShardedWorkerPool",
    "SolveRequest",
    "parse_solve_request",
    "result_to_payload",
    "run_loadgen",
    "run_server",
]
