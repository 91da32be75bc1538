"""The k-ECSS sweep benchmark: one topology, rising connectivity targets.

Runs the sweep engine over a dense seeded Erdős–Rényi instance for
``k in {2, 3, 4}`` (``repro.analysis.sweep`` with the ``ks`` axis), records
per-``k`` weight, guarantee, certified ratio, and solve time, and gates on
the layer's two contracts:

* **monotonicity** — a (k+1)-ECSS contains a k-ECSS's obligations, so the
  selected weight must not decrease as ``k`` rises;
* **small-n optimality band** — at ``n = 12`` the heuristic weight must sit
  within its per-run ``guarantee`` of the
  :func:`repro.baselines.exact_milp.exact_k_ecss_milp` optimum for every
  ``k``.

The record lands in ``BENCH_k_sweep.json`` at the repo root (uploaded as a
CI artifact by the ``k-ecss`` job).  Also runnable directly (no pytest) to
refresh the JSON:

    PYTHONPATH=src python benchmarks/bench_k_sweep.py
"""

from __future__ import annotations

import json
import os
import platform
import random
import tempfile
import time

import networkx as nx

KS = (2, 3, 4)
SWEEP_N = 48
MILP_N = 12
SEED = 1
EPS = 0.5

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_k_sweep.json",
)


def _dense_instance(n: int, seed: int) -> nx.Graph:
    """A seeded weighted G(n, p) with edge connectivity >= max(KS)."""
    rng = random.Random(seed)
    for attempt in range(200):
        g = nx.gnp_random_graph(n, 0.5 if n <= 16 else 0.25,
                                seed=seed * 1000 + attempt)
        if g.number_of_edges() and nx.edge_connectivity(g) >= max(KS):
            for u, v in sorted(g.edges()):
                g[u][v]["weight"] = round(rng.uniform(1.0, 20.0), 3)
            return g
    raise AssertionError(f"no {max(KS)}-connected instance at n={n}")


def run_k_sweep_benchmark() -> dict:
    """Sweep k in KS, differential-check small n, write the JSON record."""
    from repro.analysis.sweep import run_sweep
    from repro.baselines.exact_milp import exact_k_ecss_milp
    from repro.core.k_ecss import approximate_k_ecss, assert_k_edge_connected

    # The sweep grid: one dense family at SWEEP_N, every k, fresh cache so
    # the recorded solve_s columns are real compute, not cache reads.
    t0 = time.perf_counter()
    report = run_sweep(
        families=["erdos_renyi"],
        sizes=[SWEEP_N],
        seeds=[SEED],
        eps_values=[EPS],
        ks=list(KS),
        workers=0,
        cache_dir=tempfile.mkdtemp(prefix="bench_k_sweep_"),
        write_outputs=False,
    )
    sweep_s = time.perf_counter() - t0
    rows = {row["k"]: row for row in report.rows}
    assert sorted(rows) == sorted(KS), f"sweep returned ks {sorted(rows)}"
    weights = [rows[k]["weight"] for k in KS]
    assert all(a <= b + 1e-9 for a, b in zip(weights, weights[1:])), (
        f"k-ECSS weight decreased along {KS}: {weights}"
    )

    # Small-n differential gate: heuristic within guarantee of the MILP.
    g = _dense_instance(MILP_N, SEED)
    differential = []
    for k in KS:
        res = approximate_k_ecss(g, k)
        assert_k_edge_connected(g, res.edges, k)
        opt = exact_k_ecss_milp(g, k)
        ratio = res.weight / opt.weight
        assert opt.weight <= res.weight + 1e-9
        assert res.weight <= res.guarantee * opt.weight + 1e-9, (
            f"k={k}: weight {res.weight} above guarantee "
            f"{res.guarantee} x optimum {opt.weight}"
        )
        differential.append({
            "k": k,
            "weight": round(res.weight, 4),
            "optimum": round(opt.weight, 4),
            "ratio_to_optimum": round(ratio, 4),
            "guarantee": round(res.guarantee, 4),
        })

    record = {
        "benchmark": "k_sweep",
        "instance": {"family": "erdos_renyi", "n": SWEEP_N, "seed": SEED,
                     "eps": EPS},
        "python": platform.python_version(),
        "sweep_total_s": round(sweep_s, 4),
        "rows": [
            {
                "k": k,
                "weight": round(rows[k]["weight"], 4),
                "guarantee": round(rows[k]["guarantee"], 4),
                "certified_ratio": round(rows[k]["certified_ratio"], 4),
                "solve_s": round(rows[k]["solve_s"], 4),
            }
            for k in KS
        ],
        "milp_differential": {"n": MILP_N, "rows": differential},
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record


def test_bench_k_sweep(benchmark):
    record = benchmark.pedantic(run_k_sweep_benchmark, rounds=1, iterations=1)
    per_k = ", ".join(
        f"k={r['k']}: w={r['weight']} ({r['solve_s']}s)"
        for r in record["rows"]
    )
    print(f"\nk sweep n={SWEEP_N}: {per_k} -> {BENCH_PATH}")


if __name__ == "__main__":
    rec = run_k_sweep_benchmark()
    print(json.dumps(rec, indent=2))
