"""Serving metrics: request counters and log-bucketed latency histograms.

Dependency-free and allocation-light — counters are plain ints and each
histogram is a fixed bucket array, so recording a request costs a dict
lookup and two increments.  ``/metrics`` returns :meth:`ServeMetrics.snapshot`
as JSON; percentile estimates come from the bucket upper bounds (the usual
Prometheus-style approximation), which is plenty for spotting batching or
sharding regressions.
"""

from __future__ import annotations

import bisect
import threading

__all__ = ["LatencyHistogram", "ServeMetrics", "SizeHistogram"]


class LatencyHistogram:
    """A fixed-bucket latency histogram (milliseconds, log-spaced bounds)."""

    #: Upper bounds in ms; observations above the last bound land in +inf.
    BOUNDS_MS = (
        1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
        1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
    )

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS_MS) + 1)
        self.count = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        self.counts[bisect.bisect_left(self.BOUNDS_MS, seconds * 1000.0)] += 1
        self.count += 1
        self.sum_s += seconds
        self.max_s = max(self.max_s, seconds)

    def quantile_ms(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile in milliseconds."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                if i < len(self.BOUNDS_MS):
                    return self.BOUNDS_MS[i]
                return self.max_s * 1000.0
        return self.max_s * 1000.0  # pragma: no cover - unreachable

    def snapshot(self) -> dict:
        """JSON-safe summary: count, mean/max, quantiles, raw buckets."""
        buckets = {
            f"le_{bound:g}ms": n
            for bound, n in zip(self.BOUNDS_MS, self.counts)
        }
        buckets["inf"] = self.counts[-1]
        mean_ms = (self.sum_s / self.count * 1000.0) if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": round(mean_ms, 3),
            "max_ms": round(self.max_s * 1000.0, 3),
            "p50_ms": self.quantile_ms(0.50),
            "p90_ms": self.quantile_ms(0.90),
            "p99_ms": self.quantile_ms(0.99),
            "buckets": buckets,
        }


class SizeHistogram:
    """A fixed-bucket histogram for small integer sizes (batch fan-in).

    Power-of-two bucket bounds: a coalesced batch of size ``s`` lands in
    the first bucket with ``s <= bound``.  Same allocation-free design as
    :class:`LatencyHistogram`, used by ``/metrics`` to show how well the
    micro-batcher is actually coalescing (the precondition for the
    scenario-batched solve path to see multi-query batches).
    """

    #: Inclusive upper bounds; sizes above the last bound land in +inf.
    BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.total = 0
        self.max_size = 0

    def observe(self, size: int) -> None:
        """Record one size sample."""
        self.counts[bisect.bisect_left(self.BOUNDS, size)] += 1
        self.count += 1
        self.total += size
        self.max_size = max(self.max_size, size)

    def snapshot(self) -> dict:
        """JSON-safe summary: count, mean/max, raw buckets."""
        buckets = {
            f"le_{bound}": n for bound, n in zip(self.BOUNDS, self.counts)
        }
        buckets["inf"] = self.counts[-1]
        mean = (self.total / self.count) if self.count else 0.0
        return {
            "count": self.count,
            "mean": round(mean, 3),
            "max": self.max_size,
            "buckets": buckets,
        }


class ServeMetrics:
    """Named counters plus per-route latency and size histograms.

    Thread-safe: recording is a read-modify-write (``counters[name] += by``
    spans several bytecodes, and a histogram observe touches four fields),
    so concurrent writers — the event loop plus the inline worker thread,
    or any embedding that records from an executor — would lose updates
    without the lock.  The lock is uncontended in the common single-writer
    case, so the cost stays one ``with`` per record.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.latency: dict[str, LatencyHistogram] = {}
        self.sizes: dict[str, SizeHistogram] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, by: int = 1) -> None:
        """Increment a named counter (created on first use)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + by

    def observe(self, route: str, seconds: float) -> None:
        """Record one request latency under a route label."""
        with self._lock:
            hist = self.latency.get(route)
            if hist is None:
                hist = self.latency[route] = LatencyHistogram()
            hist.observe(seconds)

    def observe_size(self, name: str, size: int) -> None:
        """Record one integer size sample under a histogram label."""
        with self._lock:
            hist = self.sizes.get(name)
            if hist is None:
                hist = self.sizes[name] = SizeHistogram()
            hist.observe(size)

    def snapshot(self) -> dict:
        """JSON-safe view of every counter and histogram (sorted keys)."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "latency": {
                    route: hist.snapshot()
                    for route, hist in sorted(self.latency.items())
                },
                "sizes": {
                    name: hist.snapshot()
                    for name, hist in sorted(self.sizes.items())
                },
            }
