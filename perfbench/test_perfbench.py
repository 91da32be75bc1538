"""Self-tests of the latency-ledger benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They prove three things about the benchmark itself: the smoke configuration
of every workload reports every metric of ``BENCHMARK.json`` with its unit,
a tampered solve result is caught by the output checks, and a slowdown
planted in one layer shows up in that layer's ledger row only.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

from repro.core import tecss  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark command in ``cwd`` and capture its output."""
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if trace == "0":
            assert metric["value"] > 0, spec["name"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                   cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _tamper(result):
    """Corrupt a solve result in place, whatever form the workload keeps."""
    if isinstance(result, list):  # scenario_batch: one result per column
        for item in result:
            _tamper(item)
    elif isinstance(result, dict):  # serve_open: the wire payload
        result["weight"] += 1.0
    else:
        result.weight += 1.0


@pytest.mark.parametrize("workload", NAMES)
def test_tampered_result_is_caught(workload, monkeypatch):
    keep = workloads.Reservoir.add

    def add_tampered(self, item):
        _tamper(item[1])
        keep(self, item)

    monkeypatch.setattr(workloads.Reservoir, "add", add_tampered)
    outcome = workloads.run(workload, seed=5, seconds=0.5, trace=False,
                            smoke=True)
    assert outcome["failed"] >= 1
    assert outcome["metrics"]["success_rate"] < 1.0


def _cold_ledger(seconds: float = 0.3) -> dict:
    """Per-op layer means of traced tiny cold solves."""
    params = {**workloads.PARAMS["cold_solve"],
              **workloads.SMOKE["cold_solve"]}
    wl = workloads.ColdSolve(params, seed=1)
    wl.setup()
    sample = workloads.Reservoir(0, random.Random(0))
    window = workloads.closed_window(wl, seconds, traced=True, sample=sample)
    assert window["failed"] == 0
    return window["ledger"].means()


def test_planted_slowdown_shows_in_its_own_layer_only(monkeypatch):
    delay_ms = 30.0
    before = _cold_ledger()
    original = tecss.assemble_two_ecss

    def slow_assemble(*args, **kwargs):
        time.sleep(delay_ms / 1e3)
        return original(*args, **kwargs)

    monkeypatch.setattr(tecss, "assemble_two_ecss", slow_assemble)
    after = _cold_ledger()
    rise = after["assemble.two_ecss_ms"] - before["assemble.two_ecss_ms"]
    assert 0.8 * delay_ms < rise < 1.5 * delay_ms
    for name in before:
        if name != "assemble.two_ecss_ms":
            assert abs(after[name] - before[name]) < 0.15 * delay_ms, name
