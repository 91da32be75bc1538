"""Failure injection for the batched engine: per-round edge drops.

The model is *transient message loss*: a failed edge still exists (its
endpoints remain neighbors, sends across it are validated against the
CONGEST bandwidth budget and counted as sent), but messages crossing it in
a failed round are silently lost.  This matches the classic lossy-CONGEST
setting where an adversary kills links round by round, and it composes with
any :class:`~repro.sim.engine.NodeProgram` without protocol changes —
programs observe failures only as missing inbox entries.

Rounds are 1-based and match ``RunStats.rounds``: a message staged while
``rounds == k`` (i.e. sent in the k-th counted round) is dropped iff the
plan fails its edge in round ``k``.  Failed edges are undirected by
default: ``(u, v)`` kills both directions unless ``symmetric=False``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["FailurePlan", "random_failure_plan"]


@dataclass
class FailurePlan:
    """Which directed edges are down in which rounds.

    ``by_round`` maps a 1-based round number to a set of directed
    ``(sender, receiver)`` pairs; ``always`` holds pairs down in every
    round.  Use :meth:`fail` to populate (it normalizes symmetry), or the
    module helper :func:`random_failure_plan` for seeded random drops.

    A plan is *pure configuration*: the engine never mutates it, so one
    plan can be shared across networks, runs, and
    :class:`~repro.sim.runner.ScenarioRunner` repeats without conflating
    their statistics.  Per-run drop counts live in the measured
    :class:`~repro.sim.engine.RunStats` (``stats.dropped``) and on the
    engine (``net.dropped``, reset at the start of every ``run``).
    """

    by_round: dict[int, set[tuple[int, int]]] = field(default_factory=dict)
    always: set[tuple[int, int]] = field(default_factory=set)

    def fail(
        self,
        u: int,
        v: int,
        rounds: range | list[int] | tuple[int, ...] | None = None,
        symmetric: bool = True,
    ) -> "FailurePlan":
        """Mark edge ``(u, v)`` down in ``rounds`` (every round if None)."""
        pairs = [(u, v), (v, u)] if symmetric else [(u, v)]
        if rounds is None:
            self.always.update(pairs)
        else:
            for r in rounds:
                if r < 1:
                    raise ValueError(f"rounds are 1-based; got {r}")
                self.by_round.setdefault(r, set()).update(pairs)
        return self

    def is_down(self, round_no: int, sender: int, receiver: int) -> bool:
        """Is the directed edge ``sender -> receiver`` down in this round?"""
        pair = (sender, receiver)
        if pair in self.always:
            return True
        hits = self.by_round.get(round_no)
        return hits is not None and pair in hits

    def empty(self) -> bool:
        """True when the plan fails nothing (the engine then skips checks)."""
        return not self.always and not self.by_round


def random_failure_plan(
    graph,
    p: float,
    max_rounds: int,
    seed: int = 0,
    symmetric: bool = True,
) -> FailurePlan:
    """Seeded plan failing each edge independently with prob ``p`` per round.

    The draw visits the edges ordered by their endpoints' positions in
    ``graph.nodes()``, never by comparing labels, so any hashable labels
    work (ints and strs mixed) and a relabeled twin with the same node
    order draws the same plan.  On nodes iterating ``0..n-1`` ascending
    this is the sorted order of the edges.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1]; got {p}")
    rng = random.Random(seed)
    plan = FailurePlan()
    nodes = list(graph.nodes())
    position = {u: i for i, u in enumerate(nodes)}
    pairs = sorted(
        tuple(sorted((position[u], position[v]))) for u, v in graph.edges()
    )
    for r in range(1, max_rounds + 1):
        for i, j in pairs:
            if rng.random() < p:
                plan.fail(nodes[i], nodes[j], rounds=[r], symmetric=symmetric)
    return plan
