"""Unit tests for the micro-batcher, worker pool dispatch, and metrics."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.protocol import ProtocolError


def run(coro):
    return asyncio.run(coro)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce(self):
        flushes: list[tuple[str, list]] = []

        async def flush(key, items):
            flushes.append((key, items))
            return [f"{key}:{item}" for item in items]

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=10, max_delay=0.01)
            results = await asyncio.gather(
                *(batcher.submit("t", i) for i in range(5)),
                *(batcher.submit("u", i) for i in range(2)),
            )
            return batcher, results

        batcher, results = run(scenario())
        assert results == [f"t:{i}" for i in range(5)] + ["u:0", "u:1"]
        assert len(flushes) == 2  # one flush per key, not per item
        assert sorted(len(items) for _, items in flushes) == [2, 5]
        assert batcher.stats["flush_timer"] == 2
        assert batcher.stats["max_batch_observed"] == 5

    def test_max_batch_flushes_early(self):
        async def flush(key, items):
            return list(items)

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=2, max_delay=60.0)
            # max_delay is a minute: only the size trigger can flush these.
            results = await asyncio.wait_for(
                asyncio.gather(*(batcher.submit("k", i) for i in range(4))),
                timeout=5.0,
            )
            return batcher, results

        batcher, results = run(scenario())
        assert results == [0, 1, 2, 3]
        assert batcher.stats["batches"] == 2
        assert batcher.stats["flush_size"] == 2

    def test_flush_exception_propagates_to_all_waiters(self):
        async def flush(key, items):
            raise ProtocolError("unknown-topology", "gone", status=404)

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=8, max_delay=0.001)
            return await asyncio.gather(
                *(batcher.submit("k", i) for i in range(3)),
                return_exceptions=True,
            )

        results = run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, ProtocolError) for r in results)

    def test_wrong_length_flush_is_an_error(self):
        async def flush(key, items):
            return [1]  # always too short for a 2-item batch

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=2, max_delay=60.0)
            return await asyncio.gather(
                batcher.submit("k", "a"), batcher.submit("k", "b"),
                return_exceptions=True,
            )

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_drain_flushes_pending(self):
        flushed = []

        async def flush(key, items):
            await asyncio.sleep(0.01)
            flushed.extend(items)
            return list(items)

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=100, max_delay=60.0)
            waiters = [
                asyncio.ensure_future(batcher.submit("k", i))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let the submits queue up
            assert batcher.pending() == 3
            await batcher.drain()
            assert batcher.pending() == 0
            assert batcher.stats["flush_drain"] == 1
            return await asyncio.gather(*waiters)

        assert run(scenario()) == [0, 1, 2]
        assert flushed == [0, 1, 2]


class TestShardedPool:
    def test_shard_assignment_is_stable_and_covering(self):
        from repro.serve.workers import ShardedWorkerPool

        pool = ShardedWorkerPool(shards=0)
        assert pool.num_shards == 1 and pool.inline
        pool4 = ShardedWorkerPool(shards=4)
        keys = [f"topo-{i}" for i in range(64)]
        shards = [pool4.shard_of(k) for k in keys]
        assert shards == [pool4.shard_of(k) for k in keys]  # stable
        assert set(shards) == {0, 1, 2, 3}  # all shards used

    def test_unknown_topology_without_graph_raises(self):
        from repro.serve.protocol import SolveRequest
        from repro.serve.workers import ShardedWorkerPool

        async def scenario():
            pool = ShardedWorkerPool(shards=0)
            await pool.start()
            with pytest.raises(ProtocolError) as excinfo:
                await pool.solve_batch(
                    "missing", [SolveRequest(topology="missing")], None
                )
            assert excinfo.value.code == "unknown-topology"
            assert excinfo.value.status == 404
            await pool.close()

        run(scenario())

    def test_worker_session_lru_recovers_via_retry(self):
        """Evicted topologies are re-materialized from the stored graph."""
        from repro.graphs.families import make_family_instance
        from repro.serve.protocol import (
            SolveRequest, fingerprint_graph, graph_payload,
        )
        from repro.serve.workers import ShardedWorkerPool

        payloads = [
            graph_payload(make_family_instance("cycle_chords", 12, seed=s))
            for s in (1, 2)
        ]
        keys = [fingerprint_graph(p) for p in payloads]

        async def scenario():
            # max_sessions=1: registering the second topology evicts the
            # first from the worker, while the pool still believes the
            # shard knows it — the retry path must recover.
            pool = ShardedWorkerPool(
                shards=0, settings={"max_sessions": 1}
            )
            await pool.start()
            for key, payload in zip(keys, payloads):
                items = await pool.solve_batch(
                    key, [SolveRequest(topology=key)], payload
                )
                assert "result" in items[0]
            items = await pool.solve_batch(
                keys[0], [SolveRequest(topology=keys[0])], payloads[0]
            )
            assert "result" in items[0]
            await pool.close()

        run(scenario())


    def test_bad_request_fails_alone_and_each_is_solved_once(self):
        """A wrong-length column fails only its own item; no retry pass."""
        from repro.graphs.families import make_family_instance
        from repro.serve.protocol import (
            SolveRequest, fingerprint_graph, graph_payload,
        )
        from repro.serve.workers import ShardedWorkerPool

        payload = graph_payload(
            make_family_instance("cycle_chords", 12, seed=1)
        )
        key = fingerprint_graph(payload)
        m = len(payload["edges"])
        requests = [
            SolveRequest(topology=key, eps=0.5),
            SolveRequest(topology=key, eps=0.5, weights=[2.0] * m),
            SolveRequest(topology=key, eps=0.25, weights=[2.0] * m),
            SolveRequest(topology=key, eps=0.5, weights=[1.0] * (m - 1)),
        ]

        async def scenario():
            pool = ShardedWorkerPool(shards=0)
            await pool.start()
            try:
                items = await pool.solve_batch(key, requests, payload)
                (worker,) = await pool.stats()
            finally:
                await pool.close()
            return items, worker

        items, worker = run(scenario())
        assert ["result" in item for item in items] == [True] * 3 + [False]
        assert items[-1]["error"]["code"] == "invalid-request"
        (session,) = worker["sessions"]
        assert session["solves"] == len(requests)


class TestFlushFallback:
    def test_flush_uses_batched_request_graph_when_store_evicted(self):
        """A registration evicted from the dispatcher store while its own
        request sat in the batcher must still solve (inline fallback)."""
        from repro.graphs.families import make_family_instance
        from repro.serve.app import ServeApp, ServeConfig
        from repro.serve.protocol import graph_payload, parse_solve_request

        payload = graph_payload(
            make_family_instance("cycle_chords", 14, seed=3)
        )

        async def scenario():
            app = ServeApp(ServeConfig(workers=0))
            await app.startup()
            try:
                request = parse_solve_request(
                    {"graph": payload, "eps": 0.5}
                )
                # Simulate the race: the store never saw (or evicted) the
                # topology, but the batched request carries the graph.
                assert request.topology not in app._topologies
                items = await app._flush(request.topology, [request])
                assert "result" in items[0]
            finally:
                await app.shutdown()

        run(scenario())


class TestMetrics:
    def test_histogram_buckets_and_quantiles(self):
        hist = LatencyHistogram()
        for ms in (0.5, 1.5, 3.0, 30.0, 30.0, 30.0, 2000.0):
            hist.observe(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 7
        assert snap["buckets"]["le_1ms"] == 1
        assert snap["buckets"]["le_2ms"] == 1
        assert snap["buckets"]["le_5ms"] == 1
        assert snap["buckets"]["le_50ms"] == 3
        assert snap["buckets"]["le_2500ms"] == 1
        assert snap["p50_ms"] == 50.0  # upper bound of the median bucket
        assert snap["max_ms"] == 2000.0
        empty = LatencyHistogram().snapshot()
        assert empty["count"] == 0 and empty["p99_ms"] == 0.0

    def test_counters_and_routes(self):
        metrics = ServeMetrics()
        metrics.inc("a")
        metrics.inc("a", 2)
        metrics.observe("POST /v1/solve", 0.003)
        snap = metrics.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["latency"]["POST /v1/solve"]["count"] == 1

    def test_empty_histogram_quantiles_are_zero(self):
        hist = LatencyHistogram()
        assert hist.quantile_ms(0.5) == 0.0
        assert hist.quantile_ms(0.99) == 0.0
        snap = hist.snapshot()
        assert snap["mean_ms"] == 0.0 and snap["max_ms"] == 0.0
        assert all(n == 0 for n in snap["buckets"].values())

    def test_observation_above_last_bound_lands_in_inf(self):
        hist = LatencyHistogram()
        hist.observe(120.0)  # 120s, way past the 30s top bound
        snap = hist.snapshot()
        assert snap["buckets"]["inf"] == 1
        # Quantiles above the table fall back to the observed max.
        assert snap["p99_ms"] == pytest.approx(120000.0)

    def test_counters_survive_very_large_totals(self):
        # Python ints are unbounded; the snapshot must carry the exact
        # value rather than saturating or rounding through floats.
        metrics = ServeMetrics()
        big = 2**63
        metrics.inc("requests", big)
        metrics.inc("requests", 1)
        assert metrics.snapshot()["counters"]["requests"] == big + 1

    def test_concurrent_observe_loses_no_updates(self):
        # counters[name] += by spans several bytecodes; without the
        # internal lock, racing writers drop increments.
        metrics = ServeMetrics()
        threads_n, per_thread = 8, 2000

        def hammer():
            for _ in range(per_thread):
                metrics.inc("hits")
                metrics.observe("route", 0.001)
                metrics.observe_size("batch", 2)

        workers = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        snap = metrics.snapshot()
        total = threads_n * per_thread
        assert snap["counters"]["hits"] == total
        assert snap["latency"]["route"]["count"] == total
        assert snap["sizes"]["batch"]["count"] == total
