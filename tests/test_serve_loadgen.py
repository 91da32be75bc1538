"""End-to-end load-generator tests against a spawned in-process server."""

from __future__ import annotations

import pytest

from repro.serve.app import ServeConfig
from repro.serve.loadgen import LoadgenConfig, run_loadgen


def _cfg(**overrides) -> LoadgenConfig:
    base = dict(
        duration_s=1.5, topologies=3, size=24, scenarios=2,
        concurrency=3, seed=7, eps=0.5,
        families=("cycle_chords", "grid"),
    )
    base.update(overrides)
    return LoadgenConfig(**base)


def test_closed_loop_spawned_run_has_zero_errors():
    summary = run_loadgen(_cfg(), spawn=ServeConfig(workers=0))
    assert summary["mode"] == "closed"
    assert summary["ok"] > 0
    assert summary["protocol_errors"] == 0
    assert summary["transport_errors"] == 0
    assert summary["ok"] == summary["requests"]
    assert summary["throughput_rps"] > 0
    assert summary["latency_ms"]["p50"] > 0
    # Every topology registration happened at most once per topology.
    assert summary["reregistrations"] == 0


def test_open_loop_spawned_run():
    summary = run_loadgen(
        _cfg(mode="open", rate=30.0, duration_s=1.0),
        spawn=ServeConfig(workers=0),
    )
    assert summary["mode"] == "open"
    assert summary["protocol_errors"] == 0
    assert summary["ok"] > 0


def test_request_cap_stops_early():
    summary = run_loadgen(
        _cfg(requests=5, duration_s=30.0), spawn=ServeConfig(workers=0)
    )
    assert summary["requests"] == 5
    assert summary["duration_s"] < 25.0


def test_unreachable_server_raises():
    with pytest.raises(OSError):
        run_loadgen(_cfg(port=1, duration_s=0.2))


def test_batch_shared_phases_count_once_per_batch():
    from repro.serve.loadgen import _Tally

    def response(parse_ms: float) -> dict:
        # The two responses of one size-2 batch carry the same worker tree
        # and dispatch, but each its own parse and batch wait.
        return {
            "server": {"shard": 0, "batch_size": 2},
            "timings": {
                "serve.parse": {"count": 1, "total_ms": parse_ms},
                "serve.batch_wait": {"count": 1, "total_ms": 9.0},
                "serve.dispatch": {"count": 1, "total_ms": 8.0},
                "worker.solve_batch": {"count": 1, "total_ms": 6.0},
                "session.solve": {"count": 2, "total_ms": 5.0},
            },
        }

    tally = _Tally()
    tally.record_ok(response(0.5))
    tally.record_ok(response(1.5))
    assert tally.ok == 2
    assert tally.batch_sizes == [2, 2]
    assert tally.server_phases["worker.solve_batch"] == [1.0, 6.0]
    assert tally.server_phases["session.solve"] == [2.0, 5.0]
    assert tally.server_phases["serve.dispatch"] == [1.0, 8.0]
    assert tally.server_phases["serve.parse"] == [2.0, 2.0]
    assert tally.server_phases["serve.batch_wait"] == [2.0, 18.0]
