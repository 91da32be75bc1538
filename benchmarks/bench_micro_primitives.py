"""Micro-benchmarks: timing of the core primitives (pytest-benchmark proper).

These are conventional wall-clock benchmarks (multiple rounds) of the
building blocks, useful for tracking performance regressions of the library
itself — they complement the experiment macro-benches, which measure the
*algorithmic* quantities (rounds, ratios).
"""

import random

from repro.core.forward import forward_phase
from repro.core.instance import TAPInstance
from repro.core.reverse import reverse_delete
from repro.decomp.layering import Layering
from repro.decomp.petals import PetalOracle
from repro.decomp.segments import SegmentDecomposition
from repro.graphs import grid_graph
from repro.sim import BatchedNetwork, DistributedBFS, RandomGossip
from repro.trees.pathops import TreePathOps
from repro.trees.rooted import RootedTree


def _tree(n=1000, seed=0):
    rng = random.Random(seed)
    parent = [-1] + [rng.randrange(v) for v in range(1, n)]
    return RootedTree(parent, 0)


def _instance(n=600, m=1200, seed=1):
    rng = random.Random(seed)
    tree = _tree(n, seed)
    links = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            links.append((u, v, rng.uniform(1, 100)))
    for leaf in tree.leaves():
        links.append((leaf, 0, rng.uniform(50, 200)))
    return TAPInstance.from_links(tree, links)


def test_bench_layering(benchmark):
    tree = _tree(2000)
    benchmark(lambda: Layering(tree))


def test_bench_segments(benchmark):
    tree = _tree(2000)
    benchmark(lambda: SegmentDecomposition(tree))


def test_bench_pathops_coverage(benchmark):
    tree = _tree(1500)
    rng = random.Random(2)
    ops = TreePathOps(tree)
    paths = []
    for _ in range(3000):
        dec = rng.randrange(1, tree.n)
        anc = tree.ancestor_at_depth(dec, rng.randrange(tree.depth[dec]))
        paths.append((dec, anc))
    benchmark(lambda: ops.coverage_counts(paths))


def test_bench_petal_oracle(benchmark):
    inst = _instance()
    pairs = [e.pair for e in inst.edges]

    def build_and_query():
        oracle = PetalOracle(inst.ops, inst.layering, pairs)
        return [oracle.petals_of(t) for t in inst.tree.tree_edges()]

    benchmark(build_and_query)


def test_bench_forward_phase(benchmark):
    inst = _instance()
    benchmark.pedantic(lambda: forward_phase(inst, eps=0.5), rounds=2, iterations=1)


def test_bench_full_tap(benchmark):
    inst = _instance(n=400, m=800)

    def full():
        fwd = forward_phase(inst, eps=0.5)
        return reverse_delete(inst, fwd, validate=False)

    benchmark.pedantic(full, rounds=2, iterations=1)


# -- CONGEST engine micro-benchmarks ------------------------------------
# The sync/event scheduler pair on the same 2000+-node workload is the
# regression tripwire for the event-driven scheduler's >= 3x.

_SIM_GRID = (45, 45)  # 2025 nodes


def test_bench_congest_sync_bfs_2000(benchmark):
    g = grid_graph(*_SIM_GRID, seed=1)
    benchmark.pedantic(
        lambda: BatchedNetwork(g, scheduler="sync").run(DistributedBFS(0)),
        rounds=2,
        iterations=1,
    )


def test_bench_congest_batched_bfs_2000(benchmark):
    g = grid_graph(*_SIM_GRID, seed=1)
    benchmark.pedantic(
        lambda: BatchedNetwork(g).run(DistributedBFS(0)), rounds=2, iterations=1
    )


def test_bench_congest_batched_gossip(benchmark):
    g = grid_graph(*_SIM_GRID, seed=2)
    benchmark.pedantic(
        lambda: BatchedNetwork(g).run(RandomGossip(seed=3)),
        rounds=2,
        iterations=1,
    )
