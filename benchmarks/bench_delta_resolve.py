"""The 2000-node incremental re-solve benchmark: sparse deltas vs columns.

Drives the drift workload the ``/v1/delta`` route exists for: ``TICKS``
re-solves of the canonical 2000-node Erdős–Rényi instance, each tick
re-pricing ``CHANGE_FRACTION`` of the edges within ±1% of their baseline
weight — the slow-drift regime (link latencies wobbling, not links being
re-planned) where the maintained tree mostly survives and swap-edge
maintenance touches O(k · tree-path) state instead of O(m).

Two measurements, both against a baseline session fed the equivalent
*full* weight column — the best the service could do before the
incremental path existed:

* **re-plan** — the cost of getting a solve-ready
  :class:`~repro.runtime.plan.SolverPlan` for the tick's weights (sparse
  derivation vs full rebuild of MST, links and the kernel instance).
  This is the path the delta machinery replaces, and the ``MIN_SPEEDUP``
  (≥3x) gate applies to it.
* **end-to-end** — the full ``session.solve`` wall clock.  Both sides
  pay the identical per-query TAP phases (forward primal-dual +
  reverse delete) on top of their plan, so this ratio is structurally
  smaller; it is reported, asserted bit-identical tick by tick, and
  gated at ``MIN_E2E_SPEEDUP`` (≥1.5x).

The gates were ≥10x and ≥3x while the full rebuild ran networkx's MST
and link filter over a freshly materialized ``nx.Graph``.  The rebuild
now reads both off the handle's flat arrays, which made the baseline
side about 3x cheaper (re-plan 0.21 → 0.06-0.075 s per tick on the
2-core development host) while the delta side kept its cost (re-plan
15-18 ms); the measured ratios became ~4x and ~2.2x.

Every tick asserts the delta result equals the full-column result field
for field, the comparison lands in ``BENCH_delta_resolve.json`` at the
repo root (a CI artifact), and both gates are enforced in the pytest
wrapper and the ``__main__`` entry alike.

Both sides get untimed warmup ticks (the shared base-plan build plus one
drift tick to absorb first-use lazies such as the pair index), so the
comparison isolates steady-state per-tick cost, not bootstrapping.
``validate=False`` matches the serving configuration this path targets:
re-validating 2-edge-connectivity per tick would dominate both sides
with identical cost and only dilute the measured difference.

Also runnable directly (no pytest) to refresh the JSON:

    PYTHONPATH=src python benchmarks/bench_delta_resolve.py
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import time

from history import append_history

from repro.graphs.families import make_family_instance
from repro.runtime import SolverSession
from repro.runtime.registry import resolve_compute

N = 2000
SEED = 1
EPS = 0.5
TICKS = 12
CHANGE_FRACTION = 0.01
JITTER = 0.01
MIN_SPEEDUP = 3.0
MIN_E2E_SPEEDUP = 1.5

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_delta_resolve.json",
)


def _drift_ticks(graph, ticks, fraction, seed):
    """Seeded per-tick diffs: ``(sparse mapping, full column)`` pairs.

    Each diff is relative to the *baseline* weights (the ``/v1/delta``
    contract), so the sparse mapping and the patched column describe the
    same weight scenario by construction.
    """
    rng = random.Random(seed)
    edges = list(graph.edges())
    base = [graph[u][v]["weight"] for u, v in edges]
    k = max(1, round(fraction * len(edges)))
    out = []
    for _ in range(ticks):
        chosen = rng.sample(range(len(edges)), k)
        column = list(base)
        sparse = {}
        for i in chosen:
            column[i] = base[i] * rng.uniform(1 - JITTER, 1 + JITTER)
            sparse[edges[i]] = column[i]
        out.append((sparse, column))
    return out


def _materialize(plan, flavor):
    """Touch everything a ``validate=False`` solve reads off the plan."""
    plan.instance(flavor)
    plan.mst_weight
    plan.diameter


def _warm(session, warmup_tick):
    """Base-plan build plus one drift tick to absorb first-use lazies."""
    sparse, column = warmup_tick
    session.solve(eps=EPS, validate=False)
    session.solve(eps=EPS, validate=False, weights=column)


def run_delta_resolve_benchmark() -> dict:
    """Time delta re-solves vs full-column re-solves; write the JSON."""
    graph = make_family_instance("erdos_renyi", N, seed=SEED)
    warmup, *ticks = _drift_ticks(
        graph, TICKS + 1, CHANGE_FRACTION, seed=SEED
    )
    flavor = resolve_compute("fast")

    # ---- pass 1: end-to-end solves, bit-identity asserted per tick ----
    delta_session = SolverSession(graph, backend="fast")
    column_session = SolverSession(graph, backend="fast")
    _warm(delta_session, warmup)
    _warm(column_session, warmup)
    delta_session.solve(
        eps=EPS, validate=False, weights_delta=warmup[0]
    )

    gc.collect()
    delta_s = column_s = 0.0
    for sparse, column in ticks:
        t0 = time.perf_counter()
        got = delta_session.solve(eps=EPS, validate=False,
                                  weights_delta=sparse)
        delta_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        want = column_session.solve(eps=EPS, validate=False, weights=column)
        column_s += time.perf_counter() - t0
        assert got.edges == want.edges and got.weight == want.weight, (
            "delta re-solve diverged from the full-column path — the "
            "bit-identity contract is broken"
        )
        assert got.mst_edges == want.mst_edges
        assert got.mst_weight == want.mst_weight

    stats = delta_session.stats()
    assert stats["delta_requests"] == TICKS + 1
    assert stats["delta_fallbacks"] == 0, (
        "1%-of-edges drift diffs should never hit the full-rebuild fallback"
    )

    # ---- pass 2: re-plan cost (plan solve-ready, no TAP query) ----
    delta_session = SolverSession(graph, backend="fast")
    column_session = SolverSession(graph, backend="fast")
    _warm(delta_session, warmup)
    _warm(column_session, warmup)
    _materialize(delta_session.plan(None, warmup[0]), flavor)

    gc.collect()
    replan_delta_s = replan_column_s = 0.0
    for sparse, column in ticks:
        t0 = time.perf_counter()
        _materialize(delta_session.plan(None, sparse), flavor)
        replan_delta_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        _materialize(column_session.plan(column, None), flavor)
        replan_column_s += time.perf_counter() - t0

    e2e_speedup = column_s / delta_s
    replan_speedup = replan_column_s / replan_delta_s
    record = {
        "benchmark": "delta_resolve",
        "instance": {"family": "erdos_renyi", "n": N, "seed": SEED,
                     "m": graph.number_of_edges(), "eps": EPS},
        "ticks": TICKS,
        "change_fraction": CHANGE_FRACTION,
        "jitter": JITTER,
        "changed_edges_per_tick": max(
            1, round(CHANGE_FRACTION * graph.number_of_edges())
        ),
        "python": platform.python_version(),
        "replan_column_s_per_tick": round(replan_column_s / TICKS, 4),
        "replan_delta_s_per_tick": round(replan_delta_s / TICKS, 4),
        "replan_speedup": round(replan_speedup, 2),
        "min_replan_speedup_gate": MIN_SPEEDUP,
        "e2e_column_s_per_tick": round(column_s / TICKS, 4),
        "e2e_delta_s_per_tick": round(delta_s / TICKS, 4),
        "e2e_speedup": round(e2e_speedup, 2),
        "min_e2e_speedup_gate": MIN_E2E_SPEEDUP,
        "delta_tree_reuses": stats["delta_tree_reuses"],
        "delta_tree_swaps": stats["delta_tree_swaps"],
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    append_history("delta_resolve", record)
    # Enforce the gates here so both entry points (pytest and the CI
    # job's direct `python benchmarks/bench_delta_resolve.py`) fail
    # loudly.
    assert replan_speedup >= MIN_SPEEDUP, (
        f"delta re-plan speedup {replan_speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x gate"
    )
    assert e2e_speedup >= MIN_E2E_SPEEDUP, (
        f"end-to-end delta speedup {e2e_speedup:.2f}x below the "
        f"{MIN_E2E_SPEEDUP}x gate"
    )
    return record


def test_bench_delta_resolve(benchmark):
    record = benchmark.pedantic(run_delta_resolve_benchmark, rounds=1,
                                iterations=1)
    print(
        f"\ndelta re-solve n={N}: re-plan "
        f"{record['replan_column_s_per_tick']*1e3:.0f} -> "
        f"{record['replan_delta_s_per_tick']*1e3:.0f} ms/tick "
        f"({record['replan_speedup']}x), end-to-end "
        f"{record['e2e_column_s_per_tick']*1e3:.0f} -> "
        f"{record['e2e_delta_s_per_tick']*1e3:.0f} ms/tick "
        f"({record['e2e_speedup']}x, "
        f"{record['changed_edges_per_tick']} edges/tick changed) "
        f"-> {BENCH_PATH}"
    )
    assert record["replan_speedup"] >= MIN_SPEEDUP
    assert record["e2e_speedup"] >= MIN_E2E_SPEEDUP


if __name__ == "__main__":
    rec = run_delta_resolve_benchmark()
    print(json.dumps(rec, indent=2))
