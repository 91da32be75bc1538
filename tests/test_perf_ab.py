"""The decision rule of the paired perfbench A/B (``tools/perf_ab.py``).

The rule is a pure function of perfbench result lines, so it is tested on
recorded lines without running the benchmark.  Bounds and directions are
the real ones from ``BENCHMARK.json``.  The base-side extraction is
tested on this repository's own ``HEAD``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)

from tools import perf_ab  # noqa: E402

SPEC = perf_ab.load_spec()

#: A plausible drift_resolve result, metric name -> value.
TYPICAL = {
    "setup_s": 1.9,
    "latency_ms.p50": 190.0,
    "latency_ms.p90": 240.0,
    "throughput_ops_s": 5.1,
    "success_rate": 1.0,
    "peak_rss_mb": 310.0,
}


def runs(scale: "dict | None" = None) -> list:
    """``PAIRS`` result lines with a little spread, ``scale`` applied."""
    lines = []
    for i in range(perf_ab.PAIRS):
        jitter = 1.0 + 0.01 * (i % 3)
        metrics = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            value = TYPICAL[name] * (scale or {}).get(name, 1.0)
            if name != "success_rate":
                value *= jitter
            metrics[name] = {"value": value, "unit": metric["unit"]}
        lines.append(
            {"correct": True, "attempted": 40, "failed": 0, "metrics": metrics}
        )
    return lines


def failures(base: list, head: list) -> list:
    return perf_ab.compare(SPEC, "drift_resolve", base, head)[1]


@pytest.mark.parametrize("scale,failing", [
    ({}, None),
    ({"latency_ms.p50": 1.3}, "latency_ms.p50"),
    ({"latency_ms.p50": 0.7}, None),
    ({"throughput_ops_s": 0.7}, "throughput_ops_s"),
    ({"throughput_ops_s": 1.3}, None),
    ({"peak_rss_mb": 1.08}, None),
    ({"peak_rss_mb": 1.12}, "peak_rss_mb"),
])
def test_median_rule_uses_each_metric_bound_and_direction(scale, failing):
    found = failures(runs(), runs(scale))
    if failing is None:
        assert found == []
    else:
        assert len(found) == 1 and failing in found[0], found


def test_incorrect_head_run_fails():
    head = runs()
    head[3] = dict(head[3], correct=False, failed=2)
    found = failures(runs(), head)
    assert any("HEAD run 3 is not correct" in f for f in found), found
    assert any("HEAD fails" in f for f in found), found


def test_incorrect_base_run_is_an_error_not_a_pass():
    base = runs()
    base[0] = dict(base[0], correct=False, failed=1)
    found = failures(base, runs())
    assert found == [
        "drift_resolve: base run 0 is not correct (1 of 40 ops failed)"
    ]


def rows(base: list, head: list) -> dict:
    """``{metric name: its table row}`` for one comparison."""
    found = perf_ab.compare(SPEC, "drift_resolve", base, head)[0]
    return {row.split()[0]: row for row in found}


def test_rows_count_the_pairs_head_reads_better():
    base, head = runs(), runs()
    # HEAD better in pairs 0-3, worse in 4-5, tied in the rest.
    for i in range(4):
        head[i]["metrics"]["latency_ms.p50"]["value"] *= 0.99
        head[i]["metrics"]["throughput_ops_s"]["value"] *= 1.01
    for i in (4, 5):
        head[i]["metrics"]["latency_ms.p50"]["value"] *= 1.01
    table = rows(base, head)
    assert "HEAD better in 4/10 pairs" in table["latency_ms.p50"]
    assert "HEAD better in 4/10 pairs" in table["throughput_ops_s"]
    assert "HEAD better in 0/10 pairs" in table["success_rate"]


def _spread(lines: list, name: str, values: list) -> list:
    """``lines`` with ``name`` set to ``values``, one per run."""
    for line, value in zip(lines, values):
        line["metrics"][name]["value"] = value
    return lines


def test_wide_base_spread_is_unresolved_unless_head_wins_every_run():
    name = "latency_ms.p50"
    wide = [100.0, 200.0, 150.0, 250.0, 120.0, 220.0, 180.0, 130.0, 240.0,
            160.0]
    base = _spread(runs(), name, wide)
    overlapping = _spread(runs(), name, [w * 0.95 for w in wide])
    assert rows(base, overlapping)[name].endswith("unresolved")
    clear = _spread(runs(), name, [95.0 - i for i in range(perf_ab.PAIRS)])
    row = rows(base, clear)[name]
    assert row.endswith("ok") and "HEAD better in 10/10 pairs" in row
    # Neither verdict changes the gate.
    assert failures(base, overlapping) == failures(base, clear) == []


def test_extract_unpacks_a_ref_and_registers_no_worktree(tmp_path):
    try:
        before = perf_ab.git("worktree", "list", "--porcelain")
        perf_ab.git("rev-parse", "--verify", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout with a commit")
    dest = tmp_path / "base"
    perf_ab.extract("HEAD", str(dest))
    assert (dest / "src" / "repro" / "__init__.py").is_file()
    assert not (dest / ".git").exists()
    assert perf_ab.git("worktree", "list", "--porcelain") == before
