"""CONGEST node programs: BFS, flood-min, tree broadcast, aggregates, gossip.

Each program is a small state machine over the per-node ``ctx.state`` dict;
all coordination happens through messages, and the measured round counts
match the textbook bounds (BFS: eccentricity of the root; tree broadcast /
convergecast: tree height; flood-min: diameter of the flooded subgraph).

:class:`RandomGossip` is a seeded random program for differential and fuzz
testing.  It is deliberately adversarial-but-lawful: every node
runs an independent deterministic RNG (seeded by ``(program seed, node)``)
and makes random forwarding decisions, so any divergence between two
engines — in stepping order, delivery, or quiescence — snowballs into
different message counts within a round or two.  It obeys the event-driven
contract (RNG is only consumed in ``setup`` and when processing a
non-empty inbox or an armed burst), which is exactly what makes it a fair
differential workload for the event-driven scheduler against the
every-node-every-round synchronous one.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from repro.sim.engine import Context, Payload

__all__ = [
    "DistributedBFS",
    "FloodMin",
    "RandomGossip",
    "TreeAggregate",
    "TreeBroadcast",
]


class DistributedBFS:
    """Breadth-first search from a root; every node learns (dist, parent).

    After the run, ``ctx.state`` holds ``dist`` and ``parent`` (-1 for the
    root and unreached nodes).  Measured rounds = eccentricity of the root
    (+1 for the final silent round).
    """

    def __init__(self, root: int) -> None:
        self.root = root

    def setup(self, ctx: Context) -> None:
        """Root starts at distance 0; everyone else starts unreached."""
        if ctx.node == self.root:
            ctx.state.update(dist=0, parent=-1, announced=False)
        else:
            ctx.state.update(dist=None, parent=-1, announced=True)

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Adopt the smallest offered distance, then announce it once."""
        st = ctx.state
        if st["dist"] is None:
            offers = [(payload[0], sender) for sender, payload in inbox.items()]
            if offers:
                d, parent = min(offers)
                st["dist"] = d + 1
                st["parent"] = parent
                st["announced"] = False
        if st["dist"] is not None and not st["announced"]:
            st["announced"] = True
            return {u: (st["dist"],) for u in ctx.neighbors}
        return {}

    def wants_to_continue(self, ctx: Context) -> bool:
        """Stay scheduled until the node's distance is announced."""
        return not ctx.state["announced"]

    @staticmethod
    def results(network) -> tuple[list[int], list[int]]:
        """Per-node ``(dist, parent)`` lists after a run."""
        dist = [c.state["dist"] for c in network.contexts]
        parent = [c.state["parent"] for c in network.contexts]
        return dist, parent


class FloodMin:
    """Every node learns the minimum value in its *active* component.

    ``values[v]`` is the start value (any comparable tuple); ``active[v]``
    lists the incident edges (neighbor ids) the flood may use.  Measured
    rounds = component diameter + O(1).  This is the engine behind leader
    election and Borůvka fragment relabeling.
    """

    def __init__(
        self,
        values: Sequence[tuple],
        active: Mapping[int, Sequence[int]],
    ) -> None:
        self.values = values
        self.active = active

    def setup(self, ctx: Context) -> None:
        """Start from the node's own value, marked for sending."""
        ctx.state.update(best=tuple(self.values[ctx.node]), dirty=True)

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Keep the smallest value seen; forward it when it improved."""
        st = ctx.state
        for payload in inbox.values():
            if payload < st["best"]:
                st["best"] = tuple(payload)
                st["dirty"] = True
        if st["dirty"]:
            st["dirty"] = False
            return {u: st["best"] for u in self.active.get(ctx.node, ())}
        return {}

    def wants_to_continue(self, ctx: Context) -> bool:
        """Stay scheduled while an improved value is unsent."""
        return ctx.state["dirty"]

    @staticmethod
    def results(network) -> list[tuple]:
        """Per-node minimum learned in its active component."""
        return [c.state["best"] for c in network.contexts]


class TreeBroadcast:
    """The root pushes a value down a tree; rounds = tree height."""

    def __init__(self, parent: Sequence[int], root: int, value: tuple) -> None:
        self.parent = parent
        self.root = root
        self.value = value
        self.children: dict[int, list[int]] = {}
        for v, p in enumerate(parent):
            if p >= 0 and v != root:
                self.children.setdefault(p, []).append(v)

    def setup(self, ctx: Context) -> None:
        """Only the root holds the value at the start."""
        if ctx.node == self.root:
            ctx.state.update(value=self.value, sent=False)
        else:
            ctx.state.update(value=None, sent=True)

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Take the value from the parent and pass it to the children once."""
        st = ctx.state
        if st["value"] is None:
            for payload in inbox.values():
                st["value"] = tuple(payload)
                st["sent"] = False
        if st["value"] is not None and not st["sent"]:
            st["sent"] = True
            return {c: st["value"] for c in self.children.get(ctx.node, ())}
        return {}

    def wants_to_continue(self, ctx: Context) -> bool:
        """Stay scheduled until the value is passed down."""
        return not ctx.state["sent"]

    @staticmethod
    def results(network) -> list[tuple | None]:
        """Per-node received value (``None`` if unreached)."""
        return [c.state["value"] for c in network.contexts]


class TreeAggregate:
    """Convergecast: the root learns ``combine`` of all node inputs.

    Every node waits for all of its children, combines their values with its
    own input, and forwards one message to its parent; rounds = tree height.
    The combiner must be commutative/associative with O(1)-word outputs
    (sum, min, max, xor — exactly the aggregates of Claims 4.5/4.6).
    """

    def __init__(
        self,
        parent: Sequence[int],
        root: int,
        inputs: Sequence[tuple],
        combine: Callable[[tuple, tuple], tuple],
    ) -> None:
        self.parent = parent
        self.root = root
        self.inputs = inputs
        self.combine = combine
        self.child_count = [0] * len(parent)
        for v, p in enumerate(parent):
            if p >= 0 and v != root:
                self.child_count[p] += 1

    def setup(self, ctx: Context) -> None:
        """Start from the node's input, waiting on every child."""
        ctx.state.update(
            acc=tuple(self.inputs[ctx.node]),
            waiting=self.child_count[ctx.node],
            sent=False,
        )

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Combine child values; send up once all children reported."""
        st = ctx.state
        for payload in inbox.values():
            st["acc"] = self.combine(st["acc"], tuple(payload))
            st["waiting"] -= 1
        if st["waiting"] == 0 and not st["sent"] and ctx.node != self.root:
            st["sent"] = True
            return {self.parent[ctx.node]: st["acc"]}
        return {}

    def wants_to_continue(self, ctx: Context) -> bool:
        """Stay scheduled until the node has reported to its parent."""
        return ctx.state["waiting"] > 0 or (
            not ctx.state["sent"] and ctx.node != self.root
        )

    @staticmethod
    def result(network, root: int) -> tuple:
        """The root's combined value after a run."""
        return network.contexts[root].state["acc"]


class RandomGossip:
    """Random token gossip with TTLs; terminates within ``ttl`` + O(1) rounds.

    Each node starts (with probability ``start_frac``) holding a token
    ``(ttl, value)``.  On receipt of a token with positive TTL a node
    re-emits it, decremented and value-mixed, to a random subset of at most
    ``fanout`` neighbors, each kept with probability ``forward_prob``.
    Inbox iteration is sorted by sender so behavior is independent of dict
    insertion order.
    """

    def __init__(
        self,
        seed: int,
        start_frac: float = 0.35,
        ttl: int = 6,
        fanout: int = 2,
        forward_prob: float = 0.85,
    ) -> None:
        self.seed = seed
        self.start_frac = start_frac
        self.ttl = ttl
        self.fanout = fanout
        self.forward_prob = forward_prob

    def setup(self, ctx: Context) -> None:
        """Seed the node RNG and (maybe) arm an initial token burst."""
        rng = random.Random(self.seed * 1_000_003 + ctx.node)
        burst: list[tuple[int, int]] = []
        if rng.random() < self.start_frac:
            burst.append((self.ttl, rng.randrange(1 << 16)))
        ctx.state.update(rng=rng, burst=burst, seen=0)

    def _emit(self, ctx: Context, tokens: list[tuple[int, int]]) -> dict[int, Payload]:
        rng = ctx.state["rng"]
        out: dict[int, Payload] = {}
        for ttl, value in tokens:
            if ttl <= 0 or not ctx.neighbors:
                continue
            k = min(self.fanout, len(ctx.neighbors))
            for u in rng.sample(ctx.neighbors, k):
                if rng.random() < self.forward_prob:
                    # last writer wins on a shared receiver, like any
                    # outbox dict; payload stays within 2 words
                    out[u] = (ttl - 1, (value * 31 + u) % (1 << 16))
        return out

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Forward received (and burst) tokens to random neighbor subsets."""
        st = ctx.state
        tokens: list[tuple[int, int]] = []
        if st["burst"]:
            tokens.extend(st["burst"])
            st["burst"] = []
        for sender in sorted(inbox):
            ttl, value = inbox[sender]
            st["seen"] += 1
            tokens.append((int(ttl), int(value)))
        if not tokens:
            return {}
        return self._emit(ctx, tokens)

    def wants_to_continue(self, ctx: Context) -> bool:
        """Stay scheduled only while an unsent burst is armed."""
        return bool(ctx.state["burst"])

    @staticmethod
    def results(network) -> list[int]:
        """Per-node count of tokens seen — a behavioral fingerprint."""
        return [c.state["seen"] for c in network.contexts]
