"""Wire-level tests: the served results are bit-identical to one-shot calls.

Every test boots the real stack — asyncio HTTP transport, protocol
parsing, micro-batching, worker dispatch — on an ephemeral port and talks
to it through :class:`repro.serve.loadgen.HttpClient`.  The differential
suite compares ``/v1/solve`` responses, field by field with ``==``,
against :func:`repro.core.tecss.approximate_two_ecss` /
:func:`repro.dist.pipeline.distributed_two_ecss` payloads serialized by
the same canonical serializer — across every registered compute backend,
both engines, reweighted queries, and failure plans.
"""

from __future__ import annotations

import asyncio
import http.client
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.core.tecss import approximate_two_ecss
from repro.dist.pipeline import distributed_two_ecss
from repro.fast import HAVE_NUMPY
from repro.graphs.families import make_family_instance
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.loadgen import HttpClient
from repro.serve.protocol import (
    failure_plan_from_payload,
    graph_payload,
    result_to_payload,
)
from repro.serve.server import HttpServer

COMPUTE_BACKENDS = ["reference", "auto"] + (["fast"] if HAVE_NUMPY else [])


def serve_session(coro_fn, config: ServeConfig | None = None):
    """Boot a server (inline workers by default), run ``coro_fn(client,
    server)``, tear everything down; returns the coroutine's result."""
    config = config or ServeConfig(workers=0)

    async def main():
        server = HttpServer(ServeApp(config), port=0)
        await server.start()
        client = HttpClient("127.0.0.1", server.port)
        try:
            return await coro_fn(client, server)
        finally:
            await client.close()
            await server.aclose()

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# the differential suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
def test_solve_bit_identical_across_backends(backend):
    cases = [
        ("cycle_chords", 26, 3, 0.25, "improved"),
        ("grid", 25, 5, 0.5, "basic"),
        ("hub_cycle", 22, 7, 1.0, "improved"),
    ]

    async def scenario(client, server):
        for family, n, seed, eps, variant in cases:
            graph = make_family_instance(family, n, seed=seed)
            status, resp = await client.request("POST", "/v1/solve", {
                "graph": graph_payload(graph), "eps": eps,
                "variant": variant, "backend": backend,
            })
            assert status == 200, resp
            want = result_to_payload(approximate_two_ecss(
                graph, eps=eps, variant=variant, backend=backend
            ))
            assert resp["result"] == want

    serve_session(scenario)


def test_solve_bit_identical_sim_engine_and_failures():
    graph = make_family_instance("cycle_chords", 22, seed=3)
    spec = {"random": {"p": 0.25, "max_rounds": 12, "seed": 2}}

    async def scenario(client, server):
        payload = graph_payload(graph)
        status, clean = await client.request("POST", "/v1/solve", {
            "graph": payload, "eps": 0.5, "engine": "sim",
        })
        assert status == 200, clean
        want = result_to_payload(distributed_two_ecss(graph, eps=0.5))
        assert clean["result"] == want

        status, lossy = await client.request("POST", "/v1/solve", {
            "topology": clean["topology"], "eps": 0.5, "engine": "sim",
            "failures": spec,
        })
        assert status == 200, lossy
        plan = failure_plan_from_payload(spec, graph)
        want_lossy = result_to_payload(
            distributed_two_ecss(graph, eps=0.5, failures=plan)
        )
        assert lossy["result"] == want_lossy

        status, explicit = await client.request("POST", "/v1/solve", {
            "topology": clean["topology"], "eps": 0.5, "engine": "sim",
            "failures": {"edges": [{"u": 0, "v": 1, "rounds": [1, 2, 3]}]},
        })
        assert status == 200, explicit
        eplan = failure_plan_from_payload(
            {"edges": [{"u": 0, "v": 1, "rounds": [1, 2, 3]}]}, graph
        )
        want_explicit = result_to_payload(
            distributed_two_ecss(graph, eps=0.5, failures=eplan)
        )
        assert explicit["result"] == want_explicit

        status, unknown = await client.request("POST", "/v1/solve", {
            "topology": clean["topology"], "eps": 0.5, "engine": "sim",
            "failures": {"edges": [{"u": 0, "v": 999}]},
        })
        assert status == 400, unknown
        assert unknown["error"]["code"] == "invalid-failures"

    serve_session(scenario)


def test_sim_failures_on_mixed_labels_and_unknown_edges():
    """A random spec on int and str labels solves (200); an explicit spec
    naming a non-edge is the client's error, ``invalid-failures``."""
    import networkx as nx

    mixed = nx.cycle_graph(["a", 1, "b", 2, "c", 3])
    mixed.add_edge("a", "b")
    nx.set_edge_attributes(mixed, 1.5, "weight")
    chords = make_family_instance("cycle_chords", 18, seed=1)
    assert not chords.has_edge(0, 2)
    spec = {"random": {"p": 0.5, "max_rounds": 10, "seed": 4}}

    async def scenario(client, server):
        status, resp = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(mixed), "eps": 0.5, "engine": "sim",
            "failures": spec,
        })
        assert status == 200, resp
        want = distributed_two_ecss(
            mixed, eps=0.5, failures=failure_plan_from_payload(spec, mixed)
        )
        assert resp["result"] == result_to_payload(want)

        status, resp = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(chords), "eps": 0.5, "engine": "sim",
            "failures": {"edges": [{"u": 0, "v": 2}]},
        })
        assert status == 400, resp
        assert resp["error"]["code"] == "invalid-failures"
        assert "not an edge" in resp["error"]["message"]

    serve_session(scenario)


def test_reweighted_topology_reference_bit_identical():
    import networkx as nx

    graph = make_family_instance("grid", 30, seed=4)
    base = [d["weight"] for _, _, d in graph.edges(data=True)]
    column = [w * 1.3 + 0.5 for w in base]

    async def scenario(client, server):
        status, first = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(graph), "eps": 0.5,
        })
        assert status == 200
        status, resp = await client.request("POST", "/v1/solve", {
            "topology": first["topology"], "eps": 0.5, "weights": column,
        })
        assert status == 200, resp
        reweighted = nx.Graph()
        reweighted.add_nodes_from(graph.nodes())
        for (u, v, _), w in zip(graph.edges(data=True), column):
            reweighted.add_edge(u, v, weight=w)
        want = result_to_payload(
            approximate_two_ecss(reweighted, eps=0.5, backend="auto")
        )
        assert resp["result"] == want
        assert resp["topology"] == first["topology"]

    serve_session(scenario)


def test_weights_align_with_a_hand_written_payload_edge_order():
    """A ``weights`` column follows the payload's edges, in any order.

    This edge list is not in ``nx.Graph`` iteration order, which a graph
    rebuilt from it would impose on the session's edges.  The reference
    is a session on the same edge list, since virtual-edge ids follow
    edge order; the same graph built as an ``nx.Graph`` must give the
    same chosen edges and weight.
    """
    import networkx as nx

    from repro.runtime import GraphHandle, SolverSession

    edges = [[2, 3, 1.0], [0, 1, 1.0], [1, 2, 1.0], [3, 0, 1.0], [0, 2, 1.0]]
    column = [5.0, 1.0, 1.0, 1.0, 9.0]
    reweighted = [(u, v, w) for (u, v, _), w in zip(edges, column)]
    want = result_to_payload(SolverSession(
        GraphHandle.from_edges(range(4), reweighted)
    ).solve(eps=0.5))
    graph = nx.Graph()
    graph.add_nodes_from(range(4))
    graph.add_weighted_edges_from(reweighted)
    assert want["edges"] == result_to_payload(
        approximate_two_ecss(graph, eps=0.5)
    )["edges"]

    async def scenario(client, server):
        status, first = await client.request("POST", "/v1/solve", {
            "graph": {"nodes": [0, 1, 2, 3], "edges": edges}, "eps": 0.5,
        })
        assert status == 200, first
        status, resp = await client.request("POST", "/v1/solve", {
            "topology": first["topology"], "eps": 0.5, "weights": column,
        })
        assert status == 200, resp
        assert resp["result"] == want

    serve_session(scenario)


def test_simulate_mst_and_solve_batch():
    graph = make_family_instance("cycle_chords", 24, seed=9)

    async def scenario(client, server):
        payload = graph_payload(graph)
        status, resp = await client.request("POST", "/v1/solve_batch", {
            "requests": [
                {"graph": payload, "eps": 0.25},
                {"graph": payload, "eps": 0.5, "simulate_mst": True},
                {"graph": payload, "eps": 0.5, "variant": "basic"},
            ],
        })
        assert status == 200, resp
        answers = resp["responses"]
        assert [a["status"] for a in answers] == [200, 200, 200]
        wants = [
            approximate_two_ecss(graph, eps=0.25, backend="auto"),
            approximate_two_ecss(
                graph, eps=0.5, backend="auto", simulate_mst=True
            ),
            approximate_two_ecss(
                graph, eps=0.5, variant="basic", backend="auto"
            ),
        ]
        for answer, want in zip(answers, wants):
            assert answer["result"] == result_to_payload(want)
        assert answers[1]["result"]["mst_simulation"]["rounds"] > 0

    serve_session(scenario)


def test_process_sharded_workers_bit_identical():
    """The real process pool: topology-affine shards, identical results."""
    graphs = [
        make_family_instance("cycle_chords", 20, seed=1),
        make_family_instance("grid", 16, seed=2),
        make_family_instance("hub_cycle", 18, seed=3),
    ]

    async def scenario(client, server):
        shard_by_topology = {}
        for graph in graphs:
            for _ in range(2):  # second request exercises the warm path
                status, resp = await client.request("POST", "/v1/solve", {
                    "graph": graph_payload(graph), "eps": 0.5,
                })
                assert status == 200, resp
                want = result_to_payload(
                    approximate_two_ecss(graph, eps=0.5, backend="auto")
                )
                assert resp["result"] == want
                shard_by_topology.setdefault(
                    resp["topology"], set()
                ).add(resp["server"]["shard"])
        # Topology affinity: every topology always lands on one shard.
        assert all(len(s) == 1 for s in shard_by_topology.values())
        status, metrics = await client.request("GET", "/metrics")
        assert status == 200
        sessions = [
            s for worker in metrics["workers"] for s in worker["sessions"]
        ]
        assert {s["topology"] for s in sessions} == set(shard_by_topology)
        # Warm sessions: the second solve per topology hit the plan cache.
        assert all(s["plan_hits"] >= 1 for s in sessions)

    serve_session(
        scenario, ServeConfig(workers=2, max_delay_ms=1.0)
    )


# ---------------------------------------------------------------------------
# service behavior: routes, errors, introspection
# ---------------------------------------------------------------------------


def test_healthz_metrics_backends_routes():
    async def scenario(client, server):
        status, health = await client.request("GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok" and health["protocol"] == 1
        status, backends = await client.request("GET", "/backends")
        assert status == 200
        from repro.runtime.registry import registered_payload

        assert backends["backends"] == registered_payload()
        status, metrics = await client.request("GET", "/metrics")
        assert status == 200
        assert metrics["counters"]["http.requests"] >= 2
        assert "batcher" in metrics and "workers" in metrics

    serve_session(scenario)


def test_error_responses_are_structured():
    graph = make_family_instance("cycle_chords", 16, seed=5)

    async def scenario(client, server):
        # Unknown route -> 404; wrong method -> 405.
        status, resp = await client.request("GET", "/nope")
        assert status == 404 and resp["error"]["code"] == "not-found"
        status, resp = await client.request("GET", "/v1/solve")
        assert status == 405 and resp["error"]["code"] == "method-not-allowed"
        # Unparseable JSON -> 400, structured.
        status, resp = await client.request("POST", "/v1/solve", None)
        assert status == 400 and resp["error"]["code"] == "bad-json"
        # Unknown topology -> 404 with the stable code.
        status, resp = await client.request(
            "POST", "/v1/solve", {"topology": "feedfeed", "eps": 0.5}
        )
        assert status == 404 and resp["error"]["code"] == "unknown-topology"
        # Infeasible input graph (a bridge) -> 422, per protocol.
        status, resp = await client.request("POST", "/v1/solve", {
            "graph": {"edges": [[0, 1, 1.0], [1, 2, 1.0]]},
        })
        assert status == 422
        assert resp["error"]["code"] == "not-two-edge-connected"
        # Schema violation -> 400 with a field pointer.
        status, resp = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(graph), "eps": -1,
        })
        assert status == 400 and resp["error"]["field"] == "eps"
        # Wrong-length reweight column -> structured worker-side error.
        status, first = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(graph),
        })
        assert status == 200
        status, resp = await client.request("POST", "/v1/solve", {
            "topology": first["topology"], "weights": [1.0, 2.0],
        })
        assert status == 400
        assert resp["error"]["code"] == "invalid-request"
        # Failure plans need an engine with the capability.
        status, resp = await client.request("POST", "/v1/solve", {
            "topology": first["topology"],
            "failures": {"edges": [{"u": 0, "v": 1}]},
        })
        assert status == 400 and resp["error"]["code"] == "bad-request"
        # A poisoned request must not fail its batch-mates.
        status, resp = await client.request("POST", "/v1/solve_batch", {
            "requests": [
                {"topology": first["topology"], "eps": 0.5},
                {"topology": first["topology"], "weights": [1.0]},
            ],
        })
        assert status == 200
        assert resp["responses"][0]["status"] == 200
        assert resp["responses"][1]["status"] == 400

    serve_session(scenario)


def test_numbers_beyond_float_range_are_client_errors():
    """A weight or eps past ``sys.float_info.max`` answers 400, not 500."""
    graph = make_family_instance("cycle_chords", 16, seed=5)
    payload = graph_payload(graph)

    async def scenario(client, server):
        huge = 10 ** 400
        edges = [list(edge) for edge in payload["edges"]]
        edges[0][2] = huge
        status, resp = await client.request("POST", "/v1/solve", {
            "graph": {"nodes": payload["nodes"], "edges": edges},
        })
        assert status == 400, resp
        assert resp["error"]["code"] == "invalid-weight"
        status, first = await client.request("POST", "/v1/solve", {
            "graph": payload,
        })
        assert status == 200
        u, v, _ = payload["edges"][0]
        status, resp = await client.request("POST", "/v1/delta", {
            "topology": first["topology"], "delta": [[u, v, huge]],
        })
        assert status == 400 and resp["error"]["code"] == "invalid-weight"
        status, resp = await client.request("POST", "/v1/solve", {
            "topology": first["topology"], "eps": huge,
        })
        assert status == 400, resp
        assert resp["error"]["code"] == "invalid-field"
        assert resp["error"]["field"] == "eps"

    serve_session(scenario)


def test_solve_batch_isolates_parse_and_topology_errors():
    """A malformed or unknown-topology item answers per item, and never
    discards its batch-mates' results."""
    graph = make_family_instance("cycle_chords", 16, seed=8)

    async def scenario(client, server):
        status, resp = await client.request("POST", "/v1/solve_batch", {
            "requests": [
                {"graph": graph_payload(graph), "eps": 0.5},
                {"topology": "deadbeef"},            # unknown topology
                {"graph": graph_payload(graph), "eps": -3},  # schema error
            ],
        })
        assert status == 200, resp
        answers = resp["responses"]
        assert [a["status"] for a in answers] == [200, 404, 400]
        want = result_to_payload(
            approximate_two_ecss(graph, eps=0.5, backend="auto")
        )
        assert answers[0]["result"] == want
        assert answers[1]["error"]["code"] == "unknown-topology"
        assert answers[2]["error"]["field"] == "eps"

    serve_session(scenario)


def test_metric_labels_are_bounded_and_worker_errors_keep_field():
    graphs = [
        make_family_instance("cycle_chords", 14, seed=seed)
        for seed in (2, 3, 4)
    ]

    async def scenario(client, server):
        for path in ("/a", "/b", "/c"):
            await client.request("GET", path)
        status, metrics = await client.request("GET", "/metrics")
        assert status == 200
        labels = set(metrics["latency"])
        assert "GET /a" not in labels and "other" in labels
        # An error the worker pool raises after dispatch keeps its field
        # pointer on the wire.  Topology 0 is admitted, then evicted from
        # the dispatcher store (by topology 2, registered in the same
        # batch) and from its worker (by topology 1) before its flush:
        # the shard answers unknown-topology and the pool has no graph
        # left to resend.
        keys = []
        for graph in graphs[:2]:
            status, resp = await client.request("POST", "/v1/solve", {
                "graph": graph_payload(graph),
            })
            assert status == 200, resp
            keys.append(resp["topology"])
        status, resp = await client.request("POST", "/v1/solve_batch", {
            "requests": [
                {"topology": keys[0]},
                {"graph": graph_payload(graphs[2])},
            ],
        })
        assert status == 200, resp
        evicted, registered = resp["responses"]
        assert evicted["status"] == 404
        assert evicted["error"]["code"] == "unknown-topology"
        assert evicted["error"]["field"] == "topology"
        assert registered["status"] == 200
        # Admitted, so not the dispatcher's fail-fast check.
        status, metrics = await client.request("GET", "/metrics")
        assert "solve.unknown_topology" not in metrics["counters"]

    serve_session(
        scenario, ServeConfig(workers=0, max_topologies=2, max_sessions=1)
    )


def test_oversize_header_line_answers_400():
    async def scenario(client, server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(
            b"GET /healthz HTTP/1.1\r\nX-Huge: " + b"a" * (1 << 17)
            + b"\r\n\r\n"
        )
        await writer.drain()
        line = await reader.readline()
        assert b"400" in line
        writer.close()
        await writer.wait_closed()

    serve_session(scenario)


def test_sigint_closes_idle_keepalive_connections_cleanly():
    """Shutdown closes an idle keep-alive connection instead of cancelling
    its handler, which made asyncio log a ``CancelledError`` traceback."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "0",
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    try:
        port = int(re.search(
            r"listening on http://[^:]+:(\d+)", proc.stdout.readline()
        ).group(1))
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        response.read()  # the connection stays open, idle
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        conn.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "shut down cleanly" in out
    assert "Traceback" not in err, err


def test_solve_batch_rejects_oversize_and_bad_shape():
    async def scenario(client, server):
        status, resp = await client.request("POST", "/v1/solve_batch", {})
        assert status == 400 and resp["error"]["code"] == "bad-request"
        status, resp = await client.request("POST", "/v1/solve_batch", {
            "requests": [{"topology": "x"}] * 5,
        })
        assert status == 400 and resp["error"]["code"] == "batch-too-large"

    serve_session(
        scenario,
        ServeConfig(workers=0, max_batch_request=4),
    )


# ---------------------------------------------------------------------------
# tracing: bit-identity and the opt-in timings block
# ---------------------------------------------------------------------------


def test_responses_bit_identical_with_tracing_on_and_off():
    """Tracing must never reach the result payload: the same requests
    against a traced and an untraced server produce ``==`` envelopes."""
    graph = make_family_instance("cycle_chords", 20, seed=4)

    def collect(config):
        async def scenario(client, server):
            out = []
            status, resp = await client.request("POST", "/v1/solve", {
                "graph": graph_payload(graph), "eps": 0.5,
            })
            assert status == 200, resp
            resp.pop("server")  # latency_ms differs run to run by design
            out.append(resp)
            status, resp = await client.request("POST", "/v1/solve_batch", {
                "requests": [
                    {"graph": graph_payload(graph), "eps": 0.25},
                    {"graph": graph_payload(graph), "eps": 0.5,
                     "variant": "basic"},
                ],
            })
            assert status == 200, resp
            for answer in resp["responses"]:
                answer.pop("server")
            out.append(resp)
            return out

        return serve_session(scenario, config)

    traced = collect(ServeConfig(workers=0, tracing=True))
    untraced = collect(ServeConfig(workers=0, tracing=False))
    assert traced == untraced
    # And no stray timings leak in when the client never asked.
    assert "timings" not in traced[0]


def test_timings_block_is_opt_in_and_envelope_level():
    graph = make_family_instance("grid", 16, seed=2)

    async def scenario(client, server):
        body = {"graph": graph_payload(graph), "eps": 0.5, "timings": True}
        status, resp = await client.request("POST", "/v1/solve", body)
        assert status == 200, resp
        timings = resp["timings"]
        # Envelope-level sibling of "result": the canonical result payload
        # (what the differential suite compares) must not contain it.
        assert "timings" not in resp["result"]
        assert {"serve.parse", "serve.batch_wait"} <= set(timings)
        assert any(name.startswith("solve") for name in timings)
        for cell in timings.values():
            assert isinstance(cell["count"], int) and cell["count"] >= 1
            assert cell["total_ms"] >= 0.0
        # Same request without the flag: no timings key at all.
        status, resp = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(graph), "eps": 0.5,
        })
        assert status == 200 and "timings" not in resp
        # /metrics aggregates the same phase names server-side.
        status, metrics = await client.request("GET", "/metrics")
        assert status == 200
        assert "serve.dispatch" in metrics["phases"]
        assert metrics["phases"]["serve.parse"]["count"] >= 2

    serve_session(scenario, ServeConfig(workers=0, tracing=True))


def test_timings_flag_ignored_when_tracing_disabled():
    graph = make_family_instance("grid", 16, seed=2)

    async def scenario(client, server):
        body = {"graph": graph_payload(graph), "eps": 0.5, "timings": True}
        status, resp = await client.request("POST", "/v1/solve", body)
        assert status == 200, resp
        assert "timings" not in resp
        status, metrics = await client.request("GET", "/metrics")
        assert status == 200
        assert metrics["phases"] == {}

    serve_session(scenario, ServeConfig(workers=0, tracing=False))


def test_timings_across_process_workers():
    """Span trees ship back across the process boundary per batch."""
    graph = make_family_instance("cycle_chords", 18, seed=7)

    async def scenario(client, server):
        body = {"graph": graph_payload(graph), "eps": 0.5, "timings": True}
        status, resp = await client.request("POST", "/v1/solve", body)
        assert status == 200, resp
        timings = resp["timings"]
        # Worker-side phases made it back over the pipe.
        assert "worker.solve_batch" in timings
        assert "serve.dispatch" in timings
        assert any(name.startswith("solve") for name in timings)

    serve_session(
        scenario, ServeConfig(workers=1, tracing=True, max_delay_ms=1.0)
    )


# ---------------------------------------------------------------------------
# k-ECSS over the wire
# ---------------------------------------------------------------------------


def _dense_graph(n=14, seed=3):
    import networkx as nx
    import random as _random

    rng = _random.Random(seed)
    g = nx.gnp_random_graph(n, 0.6, seed=seed)
    assert nx.edge_connectivity(g) >= 4
    for u, v in sorted(g.edges()):
        g[u][v]["weight"] = round(rng.uniform(1.0, 20.0), 3)
    return g


@pytest.mark.parametrize("backend", COMPUTE_BACKENDS)
def test_k_solve_bit_identical(backend):
    from repro.core.k_ecss import approximate_k_ecss

    graph = _dense_graph()

    async def scenario(client, server):
        for k in (2, 3, 4):
            status, resp = await client.request("POST", "/v1/solve", {
                "graph": graph_payload(graph), "k": k, "backend": backend,
            })
            assert status == 200, resp
            want = result_to_payload(
                approximate_k_ecss(graph, k, backend=backend)
            )
            assert resp["result"] == want

    serve_session(scenario)


def test_k_solve_batch_round_trip():
    from repro.core.k_ecss import MAX_K, approximate_k_ecss

    graph = _dense_graph(seed=5)

    async def scenario(client, server):
        status, first = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(graph), "backend": "reference",
        })
        assert status == 200, first
        topo = first["topology"]
        status, resp = await client.request("POST", "/v1/solve_batch", {
            "requests": [
                {"topology": topo, "k": 3, "backend": "reference"},
                {"topology": topo, "k": 4, "backend": "reference"},
                {"topology": topo, "k": 1},
                {"topology": topo, "k": MAX_K + 1},
            ],
        })
        assert status == 200, resp
        ok3, ok4, bad_low, bad_high = resp["responses"]
        for k, item in ((3, ok3), (4, ok4)):
            assert item["status"] == 200, item
            want = result_to_payload(
                approximate_k_ecss(graph, k, backend="reference")
            )
            assert item["result"] == want
        for item in (bad_low, bad_high):
            assert item["status"] == 400
            assert item["error"]["code"] == "unsupported-k"
            assert item["error"]["field"] == "k"

    serve_session(scenario)


def test_delta_rejects_k_over_the_wire():
    graph = _dense_graph(seed=7)

    async def scenario(client, server):
        status, first = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(graph), "backend": "reference",
        })
        assert status == 200, first
        edge = sorted(graph.edges())[0]
        status, resp = await client.request("POST", "/v1/delta", {
            "topology": first["topology"],
            "delta": [[edge[0], edge[1], 9.0]],
            "k": 3,
        })
        assert status == 400
        assert resp["error"]["code"] == "unsupported-k"
        assert resp["error"]["field"] == "k"

    serve_session(scenario)


def test_infeasible_k_is_structured():
    graph = make_family_instance("cycle_chords", 16, seed=1)

    async def scenario(client, server):
        status, resp = await client.request("POST", "/v1/solve", {
            "graph": graph_payload(graph), "k": 4, "backend": "reference",
        })
        assert status == 422
        assert resp["error"]["code"] == "not-k-edge-connected"

    serve_session(scenario)


def test_backends_route_advertises_max_k():
    from repro.core.k_ecss import MAX_K

    async def scenario(client, server):
        status, resp = await client.request("GET", "/backends", None)
        assert status == 200
        assert resp["max_k"] == MAX_K
        by_name = {
            (b["kind"], b["name"]): set(b["capabilities"])
            for b in resp["backends"]
        }
        assert "k-ecss" in by_name[("engine", "local")]
        assert "k-ecss" in by_name[("compute", "reference")]
        assert "k-ecss" not in by_name[("engine", "sim")]

    serve_session(scenario)
