"""Per-topology micro-batching: coalesce concurrent requests into one flush.

The serving hot path is many users querying the *same* topology with
shifting weights/failures.  :class:`MicroBatcher` holds each incoming
request for at most ``max_delay`` seconds; every request for the same key
(the topology fingerprint) that arrives inside that window joins the same
batch, and the whole batch is handed to one ``flush`` call — which the app
turns into one round-trip to the worker that owns the topology.  A batch also flushes early the
moment it reaches ``max_batch`` items, so the delay knob bounds latency
and the batch knob bounds worker payload size.

The batcher is engine-agnostic: ``flush(key, items)`` is any coroutine
returning one result per item, in order.  Failures propagate to every
waiter in the batch; a flush returning the wrong number of results is a
programming error and is surfaced as one.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce concurrently-pending items per key (see module docstring).

    Parameters
    ----------
    flush:
        ``async (key, items) -> list[results]`` with ``len(results) ==
        len(items)``, results in item order.
    max_batch:
        Flush as soon as a key has this many pending items.
    max_delay:
        Seconds the first item of a batch waits for company before the
        batch flushes anyway.  ``0`` still yields to the event loop once,
        so truly concurrent submitters coalesce even with no added delay.
    """

    def __init__(
        self,
        flush: Callable[[str, list], Awaitable[list]],
        max_batch: int = 16,
        max_delay: float = 0.002,
    ) -> None:
        self._flush = flush
        self.max_batch = max(1, max_batch)
        self.max_delay = max(0.0, max_delay)
        self._pending: dict[str, list[tuple[object, asyncio.Future]]] = {}
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._inflight: set[asyncio.Task] = set()
        self.stats = {
            "submitted": 0, "batches": 0, "max_batch_observed": 0,
            "flush_size": 0, "flush_timer": 0, "flush_drain": 0,
        }

    async def submit(self, key: str, item) -> object:
        """Queue one item under ``key``; return its flush result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._pending.setdefault(key, [])
        bucket.append((item, future))
        self.stats["submitted"] += 1
        if len(bucket) >= self.max_batch:
            self._kick(key, "flush_size")
        elif len(bucket) == 1:
            self._timers[key] = loop.call_later(
                self.max_delay, self._kick, key, "flush_timer"
            )
        return await future

    def _kick(self, key: str, reason: str) -> None:
        """Detach ``key``'s bucket and launch its flush task."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        bucket = self._pending.pop(key, None)
        if not bucket:
            return
        self.stats["batches"] += 1
        self.stats[reason] += 1
        self.stats["max_batch_observed"] = max(
            self.stats["max_batch_observed"], len(bucket)
        )
        task = asyncio.get_running_loop().create_task(
            self._run_flush(key, bucket)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_flush(
        self, key: str, bucket: list[tuple[object, asyncio.Future]]
    ) -> None:
        """Run one flush and deliver results/exceptions to the waiters."""
        items = [item for item, _ in bucket]
        try:
            results = await self._flush(key, items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"flush returned {len(results)} results for "
                    f"{len(items)} items"
                )
        except Exception as exc:  # noqa: BLE001 - delivered to every waiter
            for _, future in bucket:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(bucket, results):
            if not future.done():
                future.set_result(result)

    def pending(self) -> int:
        """Items queued but not yet flushed (drain/debug introspection)."""
        return sum(len(b) for b in self._pending.values())

    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight flushes.

        The graceful-shutdown half of the batching contract: after
        ``drain()`` returns, every submitted item has been resolved one
        way or the other and no flush task is running.
        """
        for key in list(self._pending):
            self._kick(key, "flush_drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def snapshot(self) -> dict:
        """JSON-safe batching statistics plus current queue depth."""
        return {**self.stats, "pending": self.pending()}
