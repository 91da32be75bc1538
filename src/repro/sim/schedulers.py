"""Round schedulers for :class:`~repro.sim.engine.BatchedNetwork`.

A scheduler answers one question per round: *which nodes get a ``step``
call?*  The engine feeds it the set of nodes ``woken`` by a delivery this
round and the set whose last ``wants_to_continue`` was true; the scheduler
returns the node ids to step, in ascending order (ascending order keeps
inbox dict insertion order identical to synchronous stepping, which steps
senders ``0..n-1``).

``SynchronousScheduler`` steps everyone — the reference semantics, valid
for arbitrary programs.  ``EventDrivenScheduler`` steps only the
woken/continuing nodes, which is bit-for-bit equivalent for event-driven
programs (see the :mod:`repro.sim` module docstring for the contract) and
turns idle rounds from O(n) into O(active).
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["SynchronousScheduler", "EventDrivenScheduler", "resolve_scheduler"]


class SynchronousScheduler:
    """Step every node every round (the reference semantics, any program)."""

    name = "sync"
    tracks_activity = False  # the engine may skip woken-set bookkeeping

    def select(self, n: int, woken: set[int], continuing: set[int]) -> Iterable[int]:
        """Every node, every round, in ascending order."""
        return range(n)


class EventDrivenScheduler:
    """Step only nodes that received a message or asked to continue."""

    name = "event"
    tracks_activity = True

    def select(self, n: int, woken: set[int], continuing: set[int]) -> Iterable[int]:
        """The woken/continuing nodes, ascending (sync-identical order)."""
        if not continuing:
            return sorted(woken)
        if not woken:
            return sorted(continuing)
        return sorted(woken | continuing)


_BY_NAME = {
    "sync": SynchronousScheduler,
    "synchronous": SynchronousScheduler,
    "event": EventDrivenScheduler,
    "event-driven": EventDrivenScheduler,
}


def resolve_scheduler(spec) -> SynchronousScheduler | EventDrivenScheduler:
    """Accept a scheduler instance or one of the names in ``_BY_NAME``."""
    if spec is None:
        return EventDrivenScheduler()
    if isinstance(spec, str):
        try:
            return _BY_NAME[spec]()
        except KeyError:
            raise ValueError(
                f"unknown scheduler {spec!r}; choose from {sorted(_BY_NAME)}"
            ) from None
    if hasattr(spec, "select"):
        return spec
    raise TypeError(f"not a scheduler: {spec!r}")
