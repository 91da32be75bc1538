"""The 2000-node scenario-batch benchmark: vectorized vs looped solving.

The Monte-Carlo traffic shape: one topology, ``SCENARIOS`` weight
columns, each a scale-up perturbation of a few **non-tree** edges — cost
drift on backup links, the batched path's best case and the realistic
one.  Each column is a ``reused`` delta of the session's base plan
(:meth:`~repro.runtime.plan.SolverPlan.from_delta`): it keeps the base
MST, so its instance is derived from the base's with only the weight
column patched.  The scenario loop (one-query
:meth:`~repro.runtime.session.SolverSession.solve_many` calls) pays the
forward phase once per scenario; one ``solve_many`` call over all
scenarios runs one ``(scenarios × edges)`` forward pass per tree.

The looped total is *projected*: the per-scenario time is the minimum
over ``LOOP_SAMPLES`` individually timed solves, multiplied by
``SCENARIOS``.  Taking the minimum favors the looped side, so the
reported speedup is an underestimate and the ``MIN_SPEEDUP`` gate stays
honest without a CI run spending minutes on the loop.  The sampled
scenarios' results are asserted field-identical between the two paths
(the full bit-identity contract lives in
``tests/test_scenario_batch.py``).

The gate was ≥5x while each looped scenario paid networkx's MST and link
filter over a freshly materialized ``nx.Graph``.  The one-query path now
builds both from the handle's flat arrays, so the loop side got about 4x
cheaper (0.36 → 0.08 s per scenario on the 2-core development host) while
the vectorized side also got cheaper (3.6 → 3.1 s for all 100); the
measured ratio became ~2.6x, gated at ≥2x.

Writes ``BENCH_scenario_batch.json`` (CI artifact, gated ≥2x) and
appends to ``bench_history/scenario_batch.jsonl``.  Also runnable
directly:

    PYTHONPATH=src python benchmarks/bench_scenario_batch.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import random
import time

from history import append_history

from repro.graphs.families import make_family_instance
from repro.runtime import SolveQuery, SolverSession

N = 2000
SEED = 1
EPS = 0.5
SCENARIOS = 100
LOOP_SAMPLES = 5
PERTURBED_EDGES = 20
MIN_SPEEDUP = 2.0

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_scenario_batch.json",
)


def _fields_equal(a, b) -> bool:
    """Recursive dataclass-field equality (the bit-identity check)."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(
            _fields_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    return a == b


def _scenario_columns(session: SolverSession) -> list[list[float]]:
    """``SCENARIOS`` scale-up perturbations of non-tree edges."""
    from repro.core.tecss import stable_kruskal_mst

    handle = session.handle
    mst_edges, _ = stable_kruskal_mst(handle.n, handle.edges, handle.weights)
    mst = set(mst_edges)
    nontree = [i for i, e in enumerate(handle.edges) if e not in mst]
    rng = random.Random(SEED + 7)
    base = list(handle.weights)
    columns = []
    for _ in range(SCENARIOS):
        column = list(base)
        for i in rng.sample(nontree, min(PERTURBED_EDGES, len(nontree))):
            column[i] = column[i] * rng.uniform(1.0, 3.0)
        columns.append(column)
    return columns


def run_scenario_batch_benchmark() -> dict:
    """Time vectorized vs looped scenarios, check identity, write the JSON."""
    graph = make_family_instance("erdos_renyi", N, seed=SEED)
    session = SolverSession(graph, backend="fast")
    columns = _scenario_columns(session)
    queries = [
        SolveQuery(eps=EPS, validate=False, weights=column)
        for column in columns
    ]

    # Warm the topology caches (graph diameter, base plan) so both sides
    # measure steady state: the looped side's projection takes the
    # minimum over its samples, which already excludes one-time costs.
    # Two queries, because a singleton group falls back to the scalar
    # path by design.
    session.solve_many(queries[:2])

    # Looped baseline: per-scenario minimum over the first LOOP_SAMPLES
    # (fresh session so its plan cache cannot subsidize the loop).
    looped_session = SolverSession(graph, backend="fast", max_plans=2)
    loop_per_scenario_s = float("inf")
    loop_results = []
    for query in queries[:LOOP_SAMPLES]:
        t0 = time.perf_counter()
        loop_results.append(looped_session.solve_many([query])[0])
        loop_per_scenario_s = min(
            loop_per_scenario_s, time.perf_counter() - t0
        )

    # Vectorized: all scenarios through one call (includes every build).
    # Minimum of two runs — symmetric with the looped side's
    # min-over-samples, so machine noise cancels out of the ratio.
    vectorized_total_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        results = session.solve_many(queries)
        vectorized_total_s = min(
            vectorized_total_s, time.perf_counter() - t0
        )

    for got, expected in zip(results[:LOOP_SAMPLES], loop_results):
        assert _fields_equal(got, expected), (
            "vectorized scenario diverged from the looped solve — the "
            "bit-identity contract is broken"
        )
    stats = session.stats()
    assert stats["vectorized_batches"] >= 1, "the batched path never engaged"
    assert stats["scalar_fallback"] == 0, "scenarios fell back to the loop"

    loop_total_s = loop_per_scenario_s * SCENARIOS
    speedup = loop_total_s / vectorized_total_s
    record = {
        "benchmark": "scenario_batch",
        "instance": {"family": "erdos_renyi", "n": N, "seed": SEED,
                     "m": graph.number_of_edges(), "eps": EPS},
        "scenarios": SCENARIOS,
        "perturbed_edges": PERTURBED_EDGES,
        "loop_samples": LOOP_SAMPLES,
        "python": platform.python_version(),
        "loop_s_per_scenario": round(loop_per_scenario_s, 4),
        "loop_total_s_projected": round(loop_total_s, 4),
        "vectorized_total_s": round(vectorized_total_s, 4),
        "vectorized_s_per_scenario": round(
            vectorized_total_s / SCENARIOS, 4
        ),
        "vectorized_batches": stats["vectorized_batches"],
        "speedup": round(speedup, 2),
        "min_speedup_gate": MIN_SPEEDUP,
        "weight_scenario_0": results[0].weight,
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    append_history("scenario_batch", record)
    assert speedup >= MIN_SPEEDUP, (
        f"scenario-batch speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x gate"
    )
    return record


def test_bench_scenario_batch(benchmark):
    record = benchmark.pedantic(
        run_scenario_batch_benchmark, rounds=1, iterations=1
    )
    print(
        f"\nscenario batch n={N}: loop "
        f"{record['loop_s_per_scenario']*1e3:.0f} ms/scenario, vectorized "
        f"{record['vectorized_s_per_scenario']*1e3:.0f} ms/scenario, "
        f"{SCENARIOS} scenarios speedup {record['speedup']}x -> {BENCH_PATH}"
    )
    assert record["speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    rec = run_scenario_batch_benchmark()
    print(json.dumps(rec, indent=2))
