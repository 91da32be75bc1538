"""Differential tests: the batched engine against frozen reference outputs.

Through version 1.8 the repo kept a second CONGEST engine, a per-node loop
that stepped every node every round.  It was the reference semantics
:class:`repro.sim.BatchedNetwork` was built to reproduce, and its outputs
on every case below are frozen in ``tests/data/sim_legacy_outputs.json``:
``RunStats``, final node states (RNGs stripped), the gossip fingerprint and
Borůvka's tree.  The file was written by :func:`record` with that engine at
commit ``54a899f``; CHANGES.md has the command.

Each case must reproduce the frozen outputs under both schedulers, after
the same JSON round trip on both sides, and the event-driven scheduler must
equal the synchronous one live.  The sync scheduler steps every node every
round and is valid for any program, so it stays the live oracle: a
hypothesis test extends the live comparison to drawn graphs, gossip
parameters and failure plans, a program that logs each inbox's sender
order pins the event-driven scheduler's ascending step order (which every
fixed program reads order-insensitively), and a timing test pins the point
of the event-driven scheduler, ≥3× over every-node stepping on a 2000+-node
grid.

Cases take the network factory and the namespace providing the programs
(``repro.sim`` here), so the same table generated the fixture.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim as sim
from repro.graphs import (
    cycle_with_chords,
    erdos_renyi_2ec,
    grid_graph,
    hub_and_cycle,
)
from repro.graphs.families import FAMILIES, make_family_instance
from repro.sim import BatchedNetwork, random_failure_plan

from conftest import random_tree, tree_as_networkx

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "sim_legacy_outputs.json"
)

GRAPH_MAKERS = {
    "cycle_chords": lambda seed: cycle_with_chords(40, 15, seed=seed),
    "erdos_renyi": lambda seed: erdos_renyi_2ec(45, seed=seed),
    "grid": lambda seed: grid_graph(6, 7, seed=seed),
    "hub_cycle": lambda seed: hub_and_cycle(40, seed=seed),
    "path": lambda seed: nx.path_graph(35),
    "tree": lambda seed: tree_as_networkx(random_tree(40, seed=seed)),
}


def _weighted(g: nx.Graph) -> nx.Graph:
    for _, _, d in g.edges(data=True):
        d.setdefault("weight", 1.0)
    return g


def _states(net) -> list[dict]:
    """Final per-node program states, RNG objects stripped."""
    return [
        {k: v for k, v in c.state.items() if k != "rng"} for c in net.contexts
    ]


def _run(make_net, graph: nx.Graph, program) -> dict:
    net = make_net(_weighted(graph))
    stats = net.run(program)
    return {"stats": dataclasses.asdict(stats), "states": _states(net)}


def _gossip(make_net, lib, family: str, seed: int) -> dict:
    return _run(make_net, GRAPH_MAKERS[family](seed), lib.RandomGossip(seed=100 + seed))


def _gossip_fingerprint(make_net, lib) -> dict:
    net = make_net(_weighted(erdos_renyi_2ec(45, seed=9)))
    net.run(lib.RandomGossip(seed=5))
    return {"results": lib.RandomGossip.results(net)}


def _bfs(make_net, lib, seed: int) -> dict:
    return _run(make_net, erdos_renyi_2ec(40, seed=seed), lib.DistributedBFS(0))


def _flood_min(make_net, lib) -> dict:
    g = _weighted(cycle_with_chords(30, 8, seed=3))
    active = {v: sorted(g.neighbors(v)) for v in g.nodes()}
    values = [((v * 7) % 13, v) for v in range(g.number_of_nodes())]
    return _run(make_net, g, lib.FloodMin(values, active))


def _tree_broadcast(make_net, lib) -> dict:
    t = random_tree(45, seed=8)
    program = lib.TreeBroadcast(t.parent, t.root, (17,))
    return _run(make_net, tree_as_networkx(t), program)


def _tree_aggregate(make_net, lib) -> dict:
    t = random_tree(45, seed=8)
    program = lib.TreeAggregate(
        t.parent, t.root, [(1.0,)] * t.n, lambda a, b: (a[0] + b[0],)
    )
    return _run(make_net, tree_as_networkx(t), program)


def _boruvka(make_net, lib, seed: int) -> dict:
    out = lib.BoruvkaMST(make_net(cycle_with_chords(30, 12, seed=seed))).run()
    return {
        "edges": out.edges,
        "weight": out.weight,
        "phases": out.phases,
        "stats": dataclasses.asdict(out.stats),
    }


#: case id -> ``(make_net, lib) -> outputs``; the fixture holds one entry each.
CASES = {
    **{
        f"gossip/{family}/{seed}": functools.partial(_gossip, family=family, seed=seed)
        for family in sorted(GRAPH_MAKERS)
        for seed in (1, 2, 3, 4)
    },
    "gossip_fingerprint": _gossip_fingerprint,
    **{f"bfs/{seed}": functools.partial(_bfs, seed=seed) for seed in (1, 2)},
    "flood_min": _flood_min,
    "tree_broadcast": _tree_broadcast,
    "tree_aggregate": _tree_aggregate,
    **{f"boruvka/{seed}": functools.partial(_boruvka, seed=seed) for seed in (1, 2)},
}


def _roundtrip(outputs: dict) -> dict:
    return json.loads(json.dumps(outputs))


def record(make_net, lib) -> dict:
    """Every case's outputs on one engine, JSON round-tripped (the fixture)."""
    return {case: _roundtrip(run(make_net, lib)) for case, run in CASES.items()}


@functools.cache
def _frozen() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def _sync(g: nx.Graph) -> BatchedNetwork:
    return BatchedNetwork(g, scheduler="sync")


def _check(case: str) -> dict:
    """Run one case under both schedulers against each other and the fixture."""
    event = CASES[case](BatchedNetwork, sim)
    sync = CASES[case](_sync, sim)
    assert event == sync
    assert _roundtrip(event) == _frozen()[case]
    assert _roundtrip(sync) == _frozen()[case]
    return event


def test_fixture_covers_every_case():
    assert sorted(_frozen()) == sorted(CASES)


class TestRandomGossipDifferential:
    """24 seeded (graph, program) pairs — the acceptance-criteria sweep."""

    @pytest.mark.parametrize("family", sorted(GRAPH_MAKERS))
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_identical_stats_and_states(self, family, seed):
        out = _check(f"gossip/{family}/{seed}")
        assert out["stats"]["messages"] > 0  # the sweep must exercise real traffic

    def test_gossip_sees_traffic_fingerprint(self):
        _check("gossip_fingerprint")


class TestBuiltinProgramsDifferential:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bfs(self, seed):
        _check(f"bfs/{seed}")

    def test_flood_min(self):
        _check("flood_min")

    def test_tree_broadcast_and_aggregate(self):
        _check("tree_broadcast")
        _check("tree_aggregate")


class TestBoruvkaDifferential:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_identical_outcome(self, seed):
        _check(f"boruvka/{seed}")  # edges, weight, phases and stats


class TestDrawnInputs:
    """The live oracle beyond the fixed cases: event equals sync when drawn."""

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        n=st.integers(6, 60),
        graph_seed=st.integers(0, 1 << 16),
        program_seed=st.integers(0, 1 << 16),
        start_frac=st.floats(0.0, 1.0),
        ttl=st.integers(0, 8),
        fanout=st.integers(1, 4),
        forward_prob=st.floats(0.0, 1.0),
        with_failures=st.booleans(),
        p=st.floats(0.05, 0.5),
    )
    def test_event_equals_sync(
        self, family, n, graph_seed, program_seed, start_frac, ttl, fanout,
        forward_prob, with_failures, p,
    ):
        g = make_family_instance(family, n, seed=graph_seed)
        plan = None
        if with_failures:
            plan = random_failure_plan(g, p=p, max_rounds=ttl + 2, seed=graph_seed)

        def run(scheduler):
            net = BatchedNetwork(g, scheduler=scheduler, failures=plan)
            program = sim.RandomGossip(
                program_seed, start_frac=start_frac, ttl=ttl, fanout=fanout,
                forward_prob=forward_prob,
            )
            return net.run(program), _states(net)

        assert run("event") == run("sync")


class InboxOrderLog:
    """Hop-limited flooding where each node logs its inboxes' sender order.

    Event-driven (a node sends only when it first runs as a starter or
    when it receives), but order-sensitive on purpose: the log is each
    inbox dict's insertion order, the order its senders were stepped in.
    Sync steps ``0..n-1``, so event equals sync only if the event-driven
    scheduler steps in ascending order too.
    """

    def __init__(self, starters: frozenset, hops: int) -> None:
        self.starters = starters
        self.hops = hops

    def setup(self, ctx) -> None:
        ctx.state.update(armed=ctx.node in self.starters, log=[])

    def step(self, ctx, inbox):
        st = ctx.state
        if st["armed"]:
            st["armed"] = False
            return {u: (1,) for u in ctx.neighbors}
        if not inbox:
            return {}
        st["log"].append(list(inbox))
        hop = min(payload[0] for payload in inbox.values())
        if hop >= self.hops:
            return {}
        return {u: (hop + 1,) for u in ctx.neighbors}

    def wants_to_continue(self, ctx) -> bool:
        return False


class TestInboxOrder:
    @pytest.mark.parametrize("family", sorted(GRAPH_MAKERS))
    def test_event_steps_in_sync_order(self, family):
        g = _weighted(GRAPH_MAKERS[family](1))
        program = InboxOrderLog(frozenset(range(0, g.number_of_nodes(), 7)), 3)

        def run(scheduler):
            net = BatchedNetwork(g, scheduler=scheduler)
            return net.run(program), [ctx.state["log"] for ctx in net.contexts]

        event, sync = run("event"), run("sync")
        assert event == sync
        # The order must matter: some inbox holds several senders.
        assert any(len(senders) > 1 for log in sync[1] for senders in log)


class TestSpeedup:
    def test_event_beats_sync_3x_on_2000_nodes(self):
        g = grid_graph(45, 45, seed=1)  # 2025 nodes, diameter 88
        assert g.number_of_nodes() >= 2000

        def clock(scheduler):
            best, stats = float("inf"), None
            for _ in range(3):  # best-of-3 damps shared-runner timer noise
                net = BatchedNetwork(g, scheduler=scheduler)
                t0 = time.perf_counter()
                stats = net.run(sim.DistributedBFS(0))
                best = min(best, time.perf_counter() - t0)
            return best, stats

        t_event, s_event = clock("event")
        t_sync, s_sync = clock("sync")
        assert s_sync == s_event
        assert t_sync >= 3 * t_event, (
            f"sync {t_sync:.3f}s vs event {t_event:.3f}s — "
            f"only {t_sync / t_event:.1f}x"
        )
