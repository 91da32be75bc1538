"""Message-level CONGEST programs for the paper's tree building blocks.

Every program here is a genuine :class:`~repro.sim.engine.NodeProgram`:
all coordination happens through O(1)-word messages on the simulated
network, and the engine's measured :class:`~repro.sim.engine.RunStats`
are the *truth* against which :class:`~repro.core.rounds.RoundCostModel`
prices are cross-checked (see :mod:`repro.dist.pipeline`).

The programs realize the information flows the paper charges for:

* :class:`EulerTourLabels` — the LCA / ancestry labels of Section 4.1
  (subtree sizes up, DFS-interval offsets down; ``2 * height + O(1)``
  rounds);
* :class:`SubtreeAggregate` — one bottom-up aggregate (Claim 4.5 family):
  subtree sizes for the Section 4.2.1 marking step, and the
  Horton-Strahler recurrence that computes every layer number of the
  Section 4.3 layering in one sweep (Claim 4.10 prices it per layer);
* :class:`AncestorSumDown` — one top-down aggregate (Claim 4.6 family):
  every vertex learns the sum of a per-edge value along its root path —
  exactly :meth:`repro.trees.pathops.TreePathOps.ancestor_sums`;
* :class:`PipelinedChminUp` — chmin over vertical paths (the petal
  aggregates of Claim 4.11 and the forward phase's start values), items
  pipelined one-per-edge-per-round with domination pruning;
* :class:`PipelinedGather` — convergecast of O(sqrt n) candidate items to
  the root (the global-MIS information gathering of Section 4.5.1).

Programs are parameterized by the tree's ``parent``/``children`` arrays —
knowledge every node has after the MST and labeling phases — and message
payloads stay within the default 4-word CONGEST budget.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.sim.engine import Context, Payload

__all__ = [
    "AncestorSumDown",
    "ChminValues",
    "EulerTourLabels",
    "PipelinedChminUp",
    "PipelinedGather",
    "SubtreeAggregate",
    "layer_aggregate",
    "subtree_size_aggregate",
]


def _children_of(parent: Sequence[int], root: int) -> list[list[int]]:
    """Children lists (ascending, matching ``RootedTree.children``)."""
    children: list[list[int]] = [[] for _ in range(len(parent))]
    for v, p in enumerate(parent):
        if v != root and p >= 0:
            children[p].append(v)
    return children


class EulerTourLabels:
    """Distributed DFS-interval (Euler tour) labeling — paper Section 4.1.

    Phase up: every node convergecasts its subtree size to its parent.
    Phase down: the root takes ``tin = 0`` and every node hands each child
    its interval offset (``tin`` of the first child is its own ``tin + 1``,
    later children shift by the earlier siblings' sizes, ascending order —
    the exact preorder of :class:`~repro.trees.rooted.RootedTree`).  After
    quiescence each node knows ``(tin, tout)`` with ``tout = tin + size``,
    which answers every ancestry query locally — the labels the virtual
    graph construction of Section 4.1 routes by.

    Rounds: one up sweep plus one down sweep, ``2 * height + O(1)``.
    """

    def __init__(self, parent: Sequence[int], root: int) -> None:
        self.parent = parent
        self.root = root
        self.children = _children_of(parent, root)

    def setup(self, ctx: Context) -> None:
        """Initialize per-node state (child sizes unknown, label unknown)."""
        ctx.state.update(
            sizes={},
            waiting=len(self.children[ctx.node]),
            size=None,
            sent_up=False,
            tin=None,
            assigned=False,
        )

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Absorb child sizes / the parent's offset; forward when ready."""
        st = ctx.state
        v = ctx.node
        parent = self.parent[v]
        for sender, payload in inbox.items():
            if sender == parent:
                st["tin"] = int(payload[0])
            else:
                st["sizes"][sender] = int(payload[0])
                st["waiting"] -= 1
        out: dict[int, Payload] = {}
        if st["waiting"] == 0 and not st["sent_up"]:
            st["sent_up"] = True
            st["size"] = 1 + sum(st["sizes"].values())
            if v == self.root:
                st["tin"] = 0
            else:
                out[parent] = (st["size"],)
        if st["tin"] is not None and st["sent_up"] and not st["assigned"]:
            st["assigned"] = True
            offset = st["tin"] + 1
            for c in self.children[v]:
                out[c] = (offset,)
                offset += st["sizes"][c]
        return out

    def wants_to_continue(self, ctx: Context) -> bool:
        """Purely message-driven: every action is triggered by a delivery."""
        return False

    @staticmethod
    def results(network) -> tuple[list[int | None], list[int | None]]:
        """Per-node ``(tin, tout)`` lists after a run.

        Entries are ``None`` for nodes the sweeps never reached (possible
        only under failure injection).
        """
        tin = [c.state["tin"] for c in network.contexts]
        tout = [
            None
            if c.state["tin"] is None or c.state["size"] is None
            else c.state["tin"] + c.state["size"]
            for c in network.contexts
        ]
        return tin, tout


class SubtreeAggregate:
    """Generic bottom-up convergecast; every node learns a subtree value.

    Unlike :class:`repro.sim.programs.TreeAggregate` (root-only result,
    payload = accumulator), each node here *finalizes* its accumulator into
    a single word before sending, so non-associative per-node recurrences —
    the layering's Horton–Strahler rule — fit the same program.

    ``start(v)`` builds the initial accumulator, ``absorb(acc, value)``
    folds one child's finalized value in, ``finish(v, acc)`` produces the
    node's own value (one numeric word, sent to the parent).
    Rounds: ``height + O(1)``.
    """

    def __init__(
        self,
        parent: Sequence[int],
        root: int,
        start: Callable[[int], object],
        absorb: Callable[[object, float], object],
        finish: Callable[[int, object], float],
    ) -> None:
        self.parent = parent
        self.root = root
        self.children = _children_of(parent, root)
        self.start = start
        self.absorb = absorb
        self.finish = finish

    def setup(self, ctx: Context) -> None:
        """Seed the accumulator and the expected-children counter."""
        ctx.state.update(
            acc=self.start(ctx.node),
            waiting=len(self.children[ctx.node]),
            value=None,
        )

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Fold child values; finalize and forward once all have arrived."""
        st = ctx.state
        for payload in inbox.values():
            st["acc"] = self.absorb(st["acc"], payload[0])
            st["waiting"] -= 1
        if st["waiting"] == 0 and st["value"] is None:
            st["value"] = self.finish(ctx.node, st["acc"])
            if ctx.node != self.root:
                return {self.parent[ctx.node]: (st["value"],)}
        return {}

    def wants_to_continue(self, ctx: Context) -> bool:
        """Purely message-driven."""
        return False

    @staticmethod
    def results(network) -> list:
        """Per-node finalized values after a run."""
        return [c.state["value"] for c in network.contexts]


def subtree_size_aggregate(parent: Sequence[int], root: int) -> SubtreeAggregate:
    """Subtree sizes — the marking sweep of Section 4.2.1 (``size >= s``)."""
    return SubtreeAggregate(
        parent,
        root,
        start=lambda v: 1,
        absorb=lambda acc, value: acc + int(value),
        finish=lambda v, acc: acc,
    )


def layer_aggregate(parent: Sequence[int], root: int) -> SubtreeAggregate:
    """Layer numbers via the Horton–Strahler recurrence (Section 4.3).

    A leaf edge has layer 1; an edge whose deepest child layer ``M`` is
    attained by at least two children has layer ``M + 1``, otherwise ``M``
    — the same recurrence as ``Layering``'s array backend, evaluated here
    as one message-level up sweep.  The root's value is meaningless (the
    root is not a tree edge).
    """

    def absorb(acc, value):
        """Track the deepest child layer and how many children attain it."""
        maxc, attain = acc
        g = int(value)
        if g > maxc:
            return (g, 1)
        if g == maxc:
            return (maxc, attain + 1)
        return acc

    def finish(v, acc):
        """Apply the recurrence: leaves get 1, junctions of the max get +1."""
        maxc, attain = acc
        if maxc == 0:  # leaf
            return 1
        return maxc + (1 if attain >= 2 else 0)

    return SubtreeAggregate(
        parent, root, start=lambda v: (0, 0), absorb=absorb, finish=finish
    )


class AncestorSumDown:
    """Top-down prefix sums along root paths (Claims 4.5/4.6 family).

    ``values[v]`` is tree edge ``v``'s value; after the run every node
    knows ``cum[v] = sum of values on the chain v .. root`` — additions
    performed parent-before-child in exactly the order of
    :meth:`repro.trees.pathops.TreePathOps.ancestor_sums`, so the floats
    are bit-identical to the centralized prefix sums.
    Rounds: ``height + O(1)``.
    """

    def __init__(
        self, parent: Sequence[int], root: int, values: Sequence[float]
    ) -> None:
        self.parent = parent
        self.root = root
        self.children = _children_of(parent, root)
        self.values = values

    def setup(self, ctx: Context) -> None:
        """The root starts at 0.0; everyone else waits for the parent."""
        ctx.state.update(
            cum=0.0 if ctx.node == self.root else None, sent=False
        )

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Add the local edge value to the parent's sum and forward it."""
        st = ctx.state
        for payload in inbox.values():  # at most one: the parent's cum
            st["cum"] = float(payload[0]) + self.values[ctx.node]
        if st["cum"] is not None and not st["sent"]:
            st["sent"] = True
            return {c: (st["cum"],) for c in self.children[ctx.node]}
        return {}

    def wants_to_continue(self, ctx: Context) -> bool:
        """Purely message-driven."""
        return False

    @staticmethod
    def results(network) -> list[float]:
        """Per-node root-path sums after a run."""
        return [c.state["cum"] for c in network.contexts]


class ChminValues:
    """Point-query view over a finished distributed chmin (see
    :class:`PipelinedChminUp`); interface-compatible with
    :class:`repro.trees.pathops.ChminResult`."""

    __slots__ = ("_values", "identity")

    def __init__(self, values: dict[int, tuple], identity) -> None:
        self._values = values
        self.identity = identity

    def get(self, v: int):
        """The minimum over covering updates, or the identity."""
        return self._values.get(v, self.identity)

    def covered(self, v: int) -> bool:
        """Whether any update's path covers tree edge ``v``."""
        return v in self._values


class PipelinedChminUp:
    """Chmin over vertical paths, pipelined up the tree one item per round.

    Each update ``(dec, anc, value)`` starts as an *item* at ``dec``
    carrying ``(stop_depth, *value)`` where ``stop_depth = depth(anc)``.
    A node holding an item records it into its own running minimum (every
    holder's tree edge is covered by construction) and forwards it to its
    parent iff the parent is still strictly below ``anc``.  One item
    crosses each edge per round (the CONGEST discipline); queued items are
    *domination-pruned*: an item travelling at least as far with a value
    at least as small makes another redundant, which keeps queues short.

    This is the communication pattern of the petal aggregates
    (Claim 4.11) and of the forward phase's start-value aggregate; the
    measured rounds are ``O(height + congestion)`` and are cross-checked
    against the ``O(D + sqrt n)`` price per aggregate in
    :mod:`repro.dist.pipeline`.

    ``value`` tuples must fit the CONGEST budget together with the stop
    depth (``1 + len(value)`` words per message).
    """

    def __init__(
        self,
        parent: Sequence[int],
        depth: Sequence[int],
        updates: Sequence[tuple[int, int, tuple]],
    ) -> None:
        self.parent = parent
        self.depth = depth
        items_at: dict[int, list[tuple]] = {}
        for dec, anc, value in updates:
            if dec == anc:
                continue  # empty vertical path: covers nothing
            value = tuple(value) if isinstance(value, tuple) else (value,)
            items_at.setdefault(dec, []).append((depth[anc],) + value)
        self.items_at = items_at

    def _record(self, st: dict, item: tuple) -> None:
        value = item[1:]
        if st["best"] is None or value < st["best"]:
            st["best"] = value

    def _enqueue(self, ctx: Context, st: dict, item: tuple) -> None:
        parent = self.parent[ctx.node]
        if parent < 0 or self.depth[parent] <= item[0]:
            return  # the parent edge is not covered: the item dies here
        queue = st["queue"]
        for held in queue:
            if held[0] <= item[0] and held[1:] <= item[1:]:
                return  # dominated: a smaller value travels at least as far
        queue[:] = [
            held for held in queue if not (item[0] <= held[0] and item[1:] <= held[1:])
        ]
        queue.append(item)

    def setup(self, ctx: Context) -> None:
        """Seed local items; record each into the node's own minimum."""
        st = ctx.state
        st["best"] = None
        st["queue"] = []
        for item in self.items_at.get(ctx.node, ()):
            self._record(st, item)
            self._enqueue(ctx, st, item)

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Record arrivals, then forward the best queued item upward."""
        st = ctx.state
        for payload in inbox.values():
            item = tuple(payload)
            self._record(st, item)
            self._enqueue(ctx, st, item)
        queue = st["queue"]
        if queue:
            best = min(queue, key=lambda item: (item[1:], item[0]))
            queue.remove(best)
            return {self.parent[ctx.node]: best}
        return {}

    def wants_to_continue(self, ctx: Context) -> bool:
        """Keep stepping while items remain queued for forwarding."""
        return bool(ctx.state["queue"])

    @staticmethod
    def results(network, identity) -> ChminValues:
        """Collect per-tree-edge minima into a :class:`ChminValues`."""
        values = {
            c.node: c.state["best"]
            for c in network.contexts
            if c.state["best"] is not None
        }
        return ChminValues(values, identity)


class PipelinedGather:
    """Convergecast of small items to the root (Section 4.5.1 gathering).

    Items are tuples of at most ``words_per_edge`` numbers, initially held
    at arbitrary nodes; every node forwards one queued item to its parent
    per round, so the root collects all ``K`` items in
    ``O(depth + K)`` rounds — the information-gathering step that lets
    every vertex of the distributed algorithm simulate the same greedy MIS
    over the ``O(sqrt n)`` global candidates.
    """

    def __init__(
        self,
        parent: Sequence[int],
        root: int,
        items_at: Mapping[int, Sequence[tuple]],
    ) -> None:
        self.parent = parent
        self.root = root
        self.items_at = {v: list(items) for v, items in items_at.items()}

    def setup(self, ctx: Context) -> None:
        """Queue local items; the root starts collecting immediately."""
        items = list(self.items_at.get(ctx.node, ()))
        if ctx.node == self.root:
            ctx.state.update(queue=[], collected=items)
        else:
            ctx.state.update(queue=items, collected=None)

    def step(self, ctx: Context, inbox: dict[int, Payload]) -> dict[int, Payload]:
        """Absorb arrivals (root keeps them) and relay one item upward."""
        st = ctx.state
        if ctx.node == self.root:
            st["collected"].extend(tuple(p) for p in inbox.values())
            return {}
        st["queue"].extend(tuple(p) for p in inbox.values())
        if st["queue"]:
            item = st["queue"].pop(0)
            return {self.parent[ctx.node]: item}
        return {}

    def wants_to_continue(self, ctx: Context) -> bool:
        """Keep stepping while items remain queued for forwarding."""
        return bool(ctx.state["queue"])

    @staticmethod
    def results(network, root: int) -> list[tuple]:
        """The items the root collected, sorted for comparison."""
        return sorted(network.contexts[root].state["collected"])
