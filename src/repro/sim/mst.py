"""Distributed minimum spanning tree: synchronous Borůvka over the simulator.

Each phase (at most ``log2 n`` of them):

1. one round of fragment-id exchange with neighbors — each node then knows
   which incident edges leave its fragment and proposes its cheapest one;
2. a flood-min *inside each fragment* (over the fragment's tree edges)
   agrees on the fragment's minimum-weight outgoing edge (MWOE);
3. MWOEs are added to the tree, and a flood-min over tree+MWOE edges
   relabels every merged component with its minimum old fragment id.

All three steps are genuine message-level programs; the reported rounds are
the measured sum.  Phase *barriers* between steps are provided by the
harness (a standard synchronizer assumption, noted in DESIGN.md): the paper
charges Kutten–Peleg's ``O(D + sqrt(n) log* n)`` for its MST step, which this
simpler Borůvka does not match on pathological graphs — the Level-M round
model therefore prices MST with the Kutten–Peleg formula, while this program
validates correctness of a fully distributed MST computation.

Edge weights are compared as ``(w, min(u,v), max(u,v))``, making the MST
unique; the result provably matches the centralized MST weight (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.sim.engine import BatchedNetwork, RunStats
from repro.sim.programs import FloodMin

__all__ = ["BoruvkaMST", "MstOutcome"]

_INF = (float("inf"), -1, -1)


@dataclass
class MstOutcome:
    """Borůvka's tree (sorted edges), its weight, phases and measured stats."""

    edges: list[tuple[int, int]]
    weight: float
    phases: int
    stats: RunStats = field(default_factory=RunStats)


class BoruvkaMST:
    """Runs Borůvka phases on a :class:`~repro.sim.engine.BatchedNetwork`."""

    def __init__(self, network: BatchedNetwork) -> None:
        self.network = network

    def run(self, max_phases: int | None = None) -> MstOutcome:
        """Run phases until one fragment spans the graph; measured outcome."""
        net = self.network
        g = net.graph
        n = net.n
        if n == 0:
            raise SimulationError("empty network")
        limit = max_phases if max_phases is not None else n.bit_length() + 2

        def edge_key(u: int, v: int) -> tuple:
            """Unique comparison key of edge ``(u, v)``: weight, then ids."""
            return (float(g[u][v]["weight"]), min(u, v), max(u, v))

        frag = list(range(n))
        tree_adj: dict[int, set[int]] = {v: set() for v in range(n)}
        chosen: set[tuple[int, int]] = set()
        stats = RunStats()
        phases = 0

        while phases < limit:
            if len({frag[v] for v in range(n)}) == 1:
                break
            phases += 1
            # Step 1 (1 round): learn neighbors' fragment ids.  The exchange
            # is a fixed single round; we account for it directly.
            stats.rounds += 1
            stats.messages += 2 * g.number_of_edges()

            # Each node's proposal: its cheapest outgoing edge.
            proposals = []
            for v in range(n):
                best = _INF
                for u in g.neighbors(v):
                    if frag[u] != frag[v]:
                        key = edge_key(v, u)
                        if key < best:
                            best = key
                proposals.append(best)

            # Step 2: fragment-wide flood-min over fragment tree edges.
            flood = FloodMin(
                values=proposals,
                active={v: sorted(tree_adj[v]) for v in range(n)},
            )
            net.reset_state()
            stats.merge(net.run(flood))
            mwoe = FloodMin.results(net)

            # Add the agreed MWOEs (each fragment contributes one).
            per_fragment: dict[int, tuple] = {}
            for v in range(n):
                if mwoe[v] != _INF:
                    per_fragment.setdefault(frag[v], mwoe[v])
            new_edges = set()
            for _, (w, a, b) in per_fragment.items():
                new_edges.add((a, b))
            if not new_edges:
                raise SimulationError("graph is disconnected; no MST exists")
            for a, b in new_edges:
                if (a, b) not in chosen:
                    chosen.add((a, b))
                    tree_adj[a].add(b)
                    tree_adj[b].add(a)

            # Step 3: relabel merged components by flooding the min fragment id.
            flood2 = FloodMin(
                values=[(frag[v],) for v in range(n)],
                active={v: sorted(tree_adj[v]) for v in range(n)},
            )
            net.reset_state()
            stats.merge(net.run(flood2))
            frag = [FloodMin.results(net)[v][0] for v in range(n)]

        if len({frag[v] for v in range(n)}) != 1:
            raise SimulationError("Boruvka did not converge; disconnected input?")

        weight = sum(float(g[a][b]["weight"]) for a, b in chosen)
        return MstOutcome(
            edges=sorted(tuple(sorted(e)) for e in chosen),
            weight=weight,
            phases=phases,
            stats=stats,
        )
