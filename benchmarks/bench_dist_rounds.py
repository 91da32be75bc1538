"""Measured-rounds-vs-model artifact for the distributed pipeline.

Runs :func:`repro.dist.distributed_two_ecss` across graph families and
sizes, asserts bit-identity with ``backend="reference"`` and that every
per-primitive measured/priced ratio stays within the documented constant
(:data:`repro.dist.RATIO_BOUND`), and records the full rounds-vs-model
table in ``BENCH_dist_rounds.json`` at the repo root (uploaded as a CI
artifact by the ``docs`` job).

Also runnable directly (no pytest) to refresh the JSON:

    PYTHONPATH=src python benchmarks/bench_dist_rounds.py
"""

from __future__ import annotations

import json
import os
import platform

from repro.analysis.tables import rounds_vs_model_table, write_report
from repro.core.tecss import approximate_two_ecss
from repro.dist import RATIO_BOUND, distributed_two_ecss
from repro.graphs.families import make_family_instance

FAMILIES = ("cycle_chords", "erdos_renyi", "grid", "theta", "hub_cycle",
            "caterpillar")
SIZES = (30, 60)
SEED = 1
EPS = 0.5

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_dist_rounds.json",
)


def run_dist_rounds_benchmark() -> dict:
    """Measure each family/size cell; check identity and ratio bounds."""
    record: dict = {
        "benchmark": "dist_rounds",
        "eps": EPS,
        "seed": SEED,
        "ratio_bound": RATIO_BOUND,
        "python": platform.python_version(),
        "cells": [],
    }
    worst = 0.0
    runs = []
    for family in FAMILIES:
        for n in SIZES:
            graph = make_family_instance(family, n, seed=SEED)
            dist = distributed_two_ecss(graph, eps=EPS)
            runs.append(dist)
            ref = approximate_two_ecss(graph, eps=EPS, backend="reference")
            assert dist.result.edges == ref.edges, (
                f"{family}/n={n}: distributed pipeline diverged from reference"
            )
            assert dist.result.weight == ref.weight
            assert dist.within_bound, (
                f"{family}/n={n}: ratio {dist.max_ratio:.2f} exceeds "
                f"the {RATIO_BOUND}x bound"
            )
            worst = max(worst, dist.max_ratio)
            record["cells"].append(
                {
                    "family": family,
                    "n": dist.n,
                    "D": dist.diameter,
                    "measured_rounds": dist.measured_rounds,
                    "priced_rounds": dist.priced_rounds,
                    "max_ratio": round(dist.max_ratio, 3),
                    "primitives": [
                        {
                            "primitive": row["primitive"],
                            "runs": row["runs"],
                            "measured_rounds": row["measured_rounds"],
                            "priced_rounds": round(row["priced_rounds"], 2),
                            "ratio": round(row["ratio"], 3),
                        }
                        for row in dist.comparison
                    ],
                }
            )
    record["worst_ratio"] = round(worst, 3)
    with open(BENCH_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    # Human-readable twin of the JSON artifact, under benchmarks/out/.
    write_report("dist_rounds", rounds_vs_model_table(runs, title="dist_rounds"))
    return record


def test_bench_dist_rounds(benchmark):
    """Benchmark-harness entry point (one measured pass, gate enforced)."""
    record = benchmark.pedantic(run_dist_rounds_benchmark, rounds=1, iterations=1)
    print(
        f"\ndist rounds: {len(record['cells'])} cells, worst ratio "
        f"{record['worst_ratio']}x (bound {RATIO_BOUND}x) -> {BENCH_PATH}"
    )
    assert record["worst_ratio"] <= RATIO_BOUND


if __name__ == "__main__":
    rec = run_dist_rounds_benchmark()
    print(json.dumps(rec, indent=2))
