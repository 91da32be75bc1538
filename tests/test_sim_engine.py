"""Engine-contract tests for ``repro.sim``: under both schedulers the engine
must enforce the CONGEST budget, reject malformed sends, and truncate at
``max_rounds`` — same exception type, same message shape.  Plus the rest of
the engine surface: traces, schedulers, adjacency.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.exceptions import SimulationError
from repro.graphs import cycle_with_chords, grid_graph
from repro.sim import (
    BatchedNetwork,
    DistributedBFS,
    EventDrivenScheduler,
    RandomGossip,
    SynchronousScheduler,
)
from repro.sim.schedulers import resolve_scheduler

ENGINES = [BatchedNetwork, lambda g, **kw: BatchedNetwork(g, scheduler="sync", **kw)]
ENGINE_IDS = ["batched-event", "batched-sync"]


def _weighted(g: nx.Graph) -> nx.Graph:
    for _, _, d in g.edges(data=True):
        d.setdefault("weight", 1.0)
    return g


class _OneShot:
    """Sends a fixed outbox from node 0 in round 1, then stops."""

    def __init__(self, outbox):
        self.outbox = outbox

    def setup(self, ctx):
        ctx.state["sent"] = False

    def step(self, ctx, inbox):
        if ctx.node == 0 and not ctx.state["sent"]:
            ctx.state["sent"] = True
            return self.outbox
        return {}

    def wants_to_continue(self, ctx):
        return False


class _Ticker:
    """Pure state machine that counts down without ever messaging."""

    def __init__(self, ticks):
        self.ticks = ticks

    def setup(self, ctx):
        ctx.state["left"] = self.ticks if ctx.node == 0 else 0

    def step(self, ctx, inbox):
        if ctx.state["left"]:
            ctx.state["left"] -= 1
        return {}

    def wants_to_continue(self, ctx):
        return ctx.state["left"] > 0


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
class TestBudgetEnforcementParity:
    def test_oversized_payload(self, engine):
        net = engine(_weighted(nx.path_graph(3)), words_per_edge=2)
        with pytest.raises(SimulationError, match="budget is 2 words"):
            net.run(_OneShot({1: (1, 2, 3)}))

    def test_non_tuple_payload(self, engine):
        net = engine(_weighted(nx.path_graph(3)))
        with pytest.raises(SimulationError, match="non-tuple payload"):
            net.run(_OneShot({1: [1, 2]}))

    def test_non_numeric_word(self, engine):
        net = engine(_weighted(nx.path_graph(3)))
        with pytest.raises(SimulationError, match="non-numeric word"):
            net.run(_OneShot({1: ("x",)}))

    def test_non_neighbor_send(self, engine):
        net = engine(_weighted(nx.path_graph(3)))
        with pytest.raises(SimulationError, match="sent to non-neighbor 2"):
            net.run(_OneShot({2: (1,)}))

    def test_numpy_scalars_accepted(self, engine):
        np = pytest.importorskip("numpy")
        net = engine(_weighted(nx.path_graph(3)))
        stats = net.run(_OneShot({1: (np.int64(4), np.float64(0.5))}))
        assert stats.messages == 1
        assert stats.max_words == 2

    def test_non_compact_node_labels(self, engine):
        g = nx.Graph()
        g.add_edge(0, 7, weight=1.0)
        with pytest.raises(SimulationError, match="0..n-1"):
            engine(g)

    def test_max_rounds_truncation(self, engine):
        net = engine(_weighted(nx.path_graph(4)))
        stats = net.run(_Ticker(ticks=50), max_rounds=5)
        assert stats.rounds == 5
        assert not stats.quiescent

    def test_quiescence_uncounted_final_round(self, engine):
        # ticks=3: the step that zeroes the counter happens in an uncounted
        # silent round, so only 2 rounds are billed — under both schedulers
        net = engine(_weighted(nx.path_graph(4)))
        stats = net.run(_Ticker(ticks=3))
        assert stats.rounds == 2
        assert stats.quiescent
        assert stats.messages == 0


class TestBatchedSurface:
    def test_trace_accounts_every_message(self):
        g = cycle_with_chords(25, 10, seed=4)
        net = BatchedNetwork(g, trace=True)
        stats = net.run(RandomGossip(seed=3))
        assert len(net.trace) == stats.rounds
        assert sum(r.messages for r in net.trace) == stats.messages
        assert all(r.dropped == 0 and r.delivered == r.messages for r in net.trace)
        assert [r.round for r in net.trace] == list(range(1, stats.rounds + 1))
        assert max((r.words // max(r.messages, 1) for r in net.trace), default=0) \
            <= net.words_per_edge

    def test_trace_resets_between_runs(self):
        g = cycle_with_chords(20, 5, seed=1)
        net = BatchedNetwork(g, trace=True)
        net.run(DistributedBFS(0))
        first = list(net.trace)
        net.reset_state()
        stats = net.run(DistributedBFS(0))
        assert len(net.trace) == stats.rounds
        assert [r.messages for r in net.trace] == [r.messages for r in first]

    def test_retained_inbox_never_mutated(self):
        # a program that stashes the (possibly empty) inbox dict it was
        # handed must never see the engine write later deliveries into it

        class Hoarder:
            def setup(self, ctx):
                ctx.state.update(kept=None, pinged=False)

            def step(self, ctx, inbox):
                if ctx.state["kept"] is None:
                    ctx.state["kept"] = inbox  # retain round-1 empty inbox
                if ctx.node == 0 and not ctx.state["pinged"]:
                    ctx.state["pinged"] = True
                    return {u: (1,) for u in ctx.neighbors}
                return {}

            def wants_to_continue(self, ctx):
                return False

        for scheduler in ("event", "sync"):
            net = BatchedNetwork(_weighted(nx.path_graph(4)), scheduler=scheduler)
            net.run(Hoarder())
            assert [c.state["kept"] for c in net.contexts] == [{}] * 4

    def test_reuse_after_truncation(self):
        # leftover undelivered inboxes from a truncated run must not leak
        # into the next run
        g = _weighted(nx.path_graph(10))
        net = BatchedNetwork(g)
        net.run(DistributedBFS(0), max_rounds=2)
        net.reset_state()
        stats = net.run(DistributedBFS(0))
        oracle = BatchedNetwork(g, scheduler="sync").run(DistributedBFS(0))
        assert stats == oracle

    def test_context_adjacency_matches_graph(self):
        g = grid_graph(5, 6, seed=2)
        net = BatchedNetwork(g)
        assert [ctx.node for ctx in net.contexts] == list(range(g.number_of_nodes()))
        for v, ctx in enumerate(net.contexts):
            assert ctx.neighbors == tuple(sorted(g.neighbors(v)))
            assert list(ctx.edge_weights) == list(ctx.neighbors)
            for u, w in ctx.edge_weights.items():
                assert type(w) is float and w == g[v][u]["weight"]

    def test_scheduler_resolution(self):
        assert isinstance(resolve_scheduler(None), EventDrivenScheduler)
        assert isinstance(resolve_scheduler("sync"), SynchronousScheduler)
        assert isinstance(resolve_scheduler("event-driven"), EventDrivenScheduler)
        sched = SynchronousScheduler()
        assert resolve_scheduler(sched) is sched
        with pytest.raises(ValueError, match="unknown scheduler"):
            resolve_scheduler("chaotic")
        with pytest.raises(TypeError, match="not a scheduler"):
            resolve_scheduler(42)

    def test_event_scheduler_skips_idle_nodes(self):
        # on a long path, BFS wavefronts touch O(1) nodes per round — the
        # event scheduler must step far fewer nodes than rounds * n
        g = _weighted(nx.path_graph(60))
        net = BatchedNetwork(g, trace=True)
        stats = net.run(DistributedBFS(0))
        total_steps = sum(r.stepped for r in net.trace)
        assert total_steps < stats.rounds * net.n / 4
        sync = BatchedNetwork(g, scheduler="sync", trace=True)
        sync_stats = sync.run(DistributedBFS(0))
        assert sync_stats == stats
        assert sum(r.stepped for r in sync.trace) == sync_stats.rounds * net.n
