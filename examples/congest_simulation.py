"""Run genuine CONGEST node programs on the batched simulation engine.

Every message is bandwidth-checked (O(log n) bits per edge per round) and
round counts are measured, not modeled: BFS finishes in eccentricity
rounds, tree aggregation in height rounds, and the Borůvka MST matches the
centralized MST weight while reporting its real phase/round usage.  The
run finishes with the engine's party pieces: a differential check of the
event-driven scheduler against the every-node-every-round synchronous
one, the event-driven speedup, and a failure-injection scenario that
severs an edge mid-broadcast.

    python examples/congest_simulation.py
"""

from __future__ import annotations

import time

import networkx as nx

from repro.graphs import cycle_with_chords, grid_graph
from repro.sim import (
    BatchedNetwork,
    BoruvkaMST,
    DistributedBFS,
    FailurePlan,
    TreeAggregate,
)


def main() -> None:
    g = cycle_with_chords(48, 20, seed=11)
    net = BatchedNetwork(g, words_per_edge=4, trace=True)
    print(f"network: n={net.n}, m={g.number_of_edges()}, "
          f"bandwidth={net.words_per_edge} words/edge/round, "
          f"scheduler={net.scheduler.name}")

    stats = net.run(DistributedBFS(0))
    dist, parent = DistributedBFS.results(net)
    ecc = nx.eccentricity(g, 0)
    busiest = max(net.trace, key=lambda r: r.messages)
    print(f"\nBFS from node 0: {stats.rounds} rounds "
          f"(eccentricity {ecc}), {stats.messages} messages; "
          f"busiest round sent {busiest.messages} msgs, "
          f"stepped {busiest.stepped}/{net.n} nodes")

    # Aggregate the total 'load' up the BFS tree.
    net.reset_state()
    inputs = [(float(v % 7),) for v in range(net.n)]
    agg = TreeAggregate(parent, 0, inputs, lambda a, b: (a[0] + b[0],))
    stats = net.run(agg)
    total = TreeAggregate.result(net, 0)[0]
    print(f"convergecast sum over BFS tree: {total:.0f} in {stats.rounds} rounds")
    assert total == sum(v % 7 for v in range(net.n))

    out = BoruvkaMST(BatchedNetwork(g)).run()
    expected = nx.minimum_spanning_tree(g).size(weight="weight")
    print(f"\nBoruvka MST: weight {out.weight:.2f} "
          f"(centralized: {expected:.2f}), {out.phases} phases, "
          f"{out.stats.rounds} measured rounds, {out.stats.messages} messages")
    assert abs(out.weight - expected) < 1e-9

    # Differential: the synchronous scheduler steps every node every round
    # and is valid for any program, so it is the oracle.
    big = grid_graph(45, 45, seed=7)
    t0 = time.perf_counter()
    s_sync = BatchedNetwork(big, scheduler="sync").run(DistributedBFS(0))
    t_sync = time.perf_counter() - t0
    t0 = time.perf_counter()
    s_event = BatchedNetwork(big).run(DistributedBFS(0))
    t_event = time.perf_counter() - t0
    assert s_sync == s_event
    print(f"\ndifferential BFS on {big.number_of_nodes()}-node grid: "
          f"identical stats ({s_event.rounds} rounds, "
          f"{s_event.messages} msgs); sync {t_sync*1e3:.0f} ms, "
          f"event {t_event*1e3:.0f} ms "
          f"({t_sync/t_event:.1f}x speedup)")

    # Failure injection: sever a cycle edge; BFS routes the long way round.
    ring = nx.cycle_graph(12)
    for _, _, d in ring.edges(data=True):
        d["weight"] = 1.0
    plan = FailurePlan().fail(0, 1)
    lossy = BatchedNetwork(ring, failures=plan)
    lossy_stats = lossy.run(DistributedBFS(0))
    dist, _ = DistributedBFS.results(lossy)
    print(f"\nfailure injection on a 12-cycle with edge (0,1) down: "
          f"dist(1)={dist[1]} (clean: 1), {lossy_stats.dropped} messages dropped")
    assert dist[1] == 11


if __name__ == "__main__":
    main()
