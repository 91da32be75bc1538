"""The CONGEST engine: the node-program contract, adjacency, round loop.

The paper's model (Section 2): communication proceeds in synchronous
rounds, and per round each vertex may send ``O(log n)`` bits over each
incident edge.  A :class:`NodeProgram` is instantiated per run and driven
round by round:

* ``setup(ctx)`` is called once per node before round 1;
* ``step(ctx, inbox) -> outbox`` is called with the messages delivered this
  round (``inbox``: neighbor -> payload) and returns the messages to send
  (``outbox``: neighbor -> payload);
* ``wants_to_continue(ctx)`` keeps a silent node scheduled.

Payloads are tuples of numbers measured in *words* (one word = one
``O(log n)``-bit number); a send over the per-edge budget raises
:class:`~repro.exceptions.SimulationError`, as do a send to a non-neighbor,
a non-tuple payload and a non-numeric word, checked in that order.  The
network runs until global quiescence (no message sent and no node asks to
continue) or ``max_rounds``, and reports measured :class:`RunStats`.

:class:`BatchedNetwork` lays the network out for speed:

* adjacency is built once, as each node's sorted neighbour tuple and
  neighbour -> weight dict on its :class:`Context`;
* inbox dicts are double-buffered per node: sends are written straight
  into the back buffer during the step loop (no staging list, no n fresh
  dicts per round) and the buffers swap at the round edge;
* the scheduler picks which nodes to step: the default
  :class:`~repro.sim.schedulers.EventDrivenScheduler` steps only nodes
  that received a message or asked to continue, so idle regions of the
  graph cost nothing, while
  :class:`~repro.sim.schedulers.SynchronousScheduler` steps every node
  every round.

Word checks run through a fast-path type set (``int``/``float``/``bool``)
with an ``isinstance(x, numbers.Number)`` fallback, so numpy scalars and
other exotic numerics are accepted as words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Number
from typing import Mapping, Protocol

import networkx as nx

from repro.exceptions import SimulationError
from repro.sim.failures import FailurePlan
from repro.sim.schedulers import resolve_scheduler

__all__ = [
    "BatchedNetwork",
    "Context",
    "NodeProgram",
    "Payload",
    "RoundRecord",
    "RunStats",
]

Payload = tuple

_FAST_WORD_TYPES = frozenset((int, float, bool))


@dataclass
class Context:
    """What a node is allowed to know locally (Section 2 of the paper)."""

    node: int
    neighbors: tuple[int, ...]
    edge_weights: Mapping[int, float]
    n: int

    # Scratch space for the program's per-node state.
    state: dict = field(default_factory=dict)


class NodeProgram(Protocol):  # pragma: no cover - structural type only
    """The per-run node program a network drives round by round."""

    def setup(self, ctx: Context) -> None:
        """Initialize ``ctx.state`` once, before round 1."""

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Consume this round's inbox and return the outbox to send."""

    def wants_to_continue(self, ctx: Context) -> bool:
        """Whether the node must be stepped again even without mail."""


@dataclass
class RunStats:
    """Measured statistics of one ``run``: counted rounds, messages sent,
    the widest payload, quiescence, and the number of messages lost to
    failure injection in *this* run."""

    rounds: int = 0
    messages: int = 0
    max_words: int = 0
    quiescent: bool = False
    dropped: int = 0

    def merge(self, other: "RunStats") -> None:
        """Fold a later phase's stats into this one (phases run back to back)."""
        self.rounds += other.rounds
        self.messages += other.messages
        self.max_words = max(self.max_words, other.max_words)
        self.quiescent = other.quiescent
        self.dropped += other.dropped


@dataclass
class RoundRecord:
    """Per-round accounting emitted when ``trace=True``."""

    round: int
    stepped: int  # nodes that got a step() call this round
    messages: int  # messages sent (validated + counted)
    words: int  # total words sent
    delivered: int  # messages actually delivered (sent - dropped)
    dropped: int  # messages lost to failure injection


class BatchedNetwork:
    """A CONGEST network over an undirected weighted graph (0..n-1 nodes).

    Programs and their helpers (``DistributedBFS.results(net)``,
    :class:`~repro.sim.mst.BoruvkaMST`) read the ``graph``/``n``/
    ``words_per_edge``/``contexts`` attributes; ``run`` and
    ``reset_state`` drive them.

    Parameters
    ----------
    scheduler:
        ``"event"`` (default), ``"sync"``, or a scheduler instance from
        :mod:`repro.sim.schedulers`.
    failures:
        an optional :class:`~repro.sim.failures.FailurePlan`; messages
        crossing a failed edge are validated and counted but not delivered.
    trace:
        when true, ``self.trace`` holds one :class:`RoundRecord` per
        counted round of the most recent ``run``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        words_per_edge: int = 4,
        scheduler=None,
        failures: FailurePlan | None = None,
        trace: bool = False,
    ) -> None:
        self.graph = graph
        self.n = graph.number_of_nodes()
        if set(graph.nodes()) != set(range(self.n)):
            raise SimulationError("network nodes must be 0..n-1")
        self.words_per_edge = words_per_edge
        self.scheduler = resolve_scheduler(scheduler)
        self.failures = failures
        self.trace: list[RoundRecord] | None = [] if trace else None
        self.dropped = 0

        self.contexts: list[Context] = []
        for v in range(self.n):
            row = graph[v]
            nbrs = sorted(graph.neighbors(v))
            self.contexts.append(Context(
                node=v,
                neighbors=tuple(nbrs),
                edge_weights={
                    u: float(row[u].get("weight", 1.0)) for u in nbrs
                },
                n=self.n,
            ))

        # Double-buffered inbox dicts: programs read the front buffer while
        # sends are written straight into the back buffer (no staging
        # list), and the buffers swap at the round edge.  A stepped node's
        # front dict is handed to the program for keeps and replaced.
        self._inboxes: list[dict[int, Payload]] = [{} for _ in range(self.n)]
        self._inboxes_back: list[dict[int, Payload]] = [{} for _ in range(self.n)]

    def reset_state(self) -> None:
        """Clear every node's program state (contexts are reused across runs)."""
        for ctx in self.contexts:
            ctx.state = {}

    def _check_payload(self, sender: int, receiver: int, payload: Payload) -> int:
        if not isinstance(payload, tuple):
            raise SimulationError(
                f"node {sender} sent a non-tuple payload to {receiver}"
            )
        for x in payload:
            if type(x) not in _FAST_WORD_TYPES and not isinstance(x, Number):
                raise SimulationError(
                    f"node {sender} sent non-numeric word {x!r} to {receiver}"
                )
        words = len(payload)
        if words > self.words_per_edge:
            raise SimulationError(
                f"node {sender} sent {words} words to {receiver}; the CONGEST "
                f"budget is {self.words_per_edge} words (O(log n) bits)"
            )
        return words

    # -- the round loop -----------------------------------------------------

    def run(self, program: NodeProgram, max_rounds: int | None = None) -> RunStats:
        """Drive the program to quiescence; returns measured statistics.

        ``rounds`` counts rounds in which a message was sent or a node
        asked to continue; the final silent round is uncounted; hitting
        ``max_rounds`` leaves ``quiescent`` false.
        """
        n = self.n
        limit = max_rounds if max_rounds is not None else 20 * n + 50
        contexts = self.contexts
        for ctx in contexts:
            program.setup(ctx)

        stats = RunStats()
        front = self._inboxes
        back = self._inboxes_back
        for buf in (front, back):  # drop leftovers from a truncated run
            for v in range(n):
                if buf[v]:
                    buf[v] = {}
        trace = self.trace
        if trace is not None:
            trace.clear()
        failures = self.failures
        inject = failures is not None and not failures.empty()
        scheduler = self.scheduler
        # custom schedulers only have to provide select(); absent the
        # tracks_activity hint we conservatively keep the woken set
        track_woken = getattr(scheduler, "tracks_activity", True)
        self.dropped = 0  # per-run mirror of stats.dropped (plans stay immutable)
        step = program.step
        wants = program.wants_to_continue

        woken: set[int] = set(range(n))  # round 1 steps everyone, like setup
        continuing: set[int] = set()

        for _ in range(limit):
            # Sends land directly in the back buffer: a node stepped later
            # this round still reads the front buffer, preserving the
            # synchronous delivered-next-round semantics without staging.
            new_continuing: set[int] = set()
            new_woken: set[int] = set()
            stepped = 0
            msg_count = 0
            round_words = 0
            dropped = 0
            round_no = stats.rounds + 1  # the round these sends belong to
            for v in scheduler.select(n, woken, continuing):
                ctx = contexts[v]
                inbox = front[v]
                out = step(ctx, inbox) or {}
                # the program may retain the dict it was handed; give it
                # away unconditionally so later deliveries never mutate a
                # retained inbox
                front[v] = {}
                stepped += 1
                if out:
                    ew = ctx.edge_weights
                    for receiver, payload in out.items():
                        if receiver not in ew:
                            raise SimulationError(
                                f"node {v} sent to non-neighbor {receiver}"
                            )
                        words = self._check_payload(v, receiver, payload)
                        msg_count += 1
                        if words > stats.max_words:
                            stats.max_words = words
                        round_words += words
                        if inject and failures.is_down(round_no, v, receiver):
                            dropped += 1
                        else:
                            back[receiver][v] = payload
                            if track_woken:
                                new_woken.add(receiver)
                if wants(ctx):
                    new_continuing.add(v)

            stats.messages += msg_count
            if not msg_count and not new_continuing:
                # Unstepped nodes are idle by the event-driven contract;
                # scan them anyway (wants is a pure predicate) so a
                # contract-violating program is woken, not wrongly halted.
                stragglers = {v for v in range(n) if wants(contexts[v])}
                if not stragglers:
                    stats.quiescent = True
                    break
                new_continuing = stragglers

            stats.rounds += 1
            if dropped:
                stats.dropped += dropped
                self.dropped += dropped
            front, back = back, front
            woken = new_woken
            continuing = new_continuing
            if trace is not None:
                trace.append(
                    RoundRecord(
                        round=round_no,
                        stepped=stepped,
                        messages=msg_count,
                        words=round_words,
                        delivered=msg_count - dropped,
                        dropped=dropped,
                    )
                )
        return stats
