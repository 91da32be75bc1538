"""Per-layer attribution of traced ops, and the statistics the benchmark prints.

A traced op is one ``bench.op`` root span.  Beneath it the benchmark opens
its own ``bench:<layer>`` span around every public call it makes into a
layer, and the solver's existing spans split two of them further
(``tap.*`` inside ``solve_virtual_tap``, ``batch.*`` inside
``solve_batch_vectorized``).  A layer's time is the duration of its span.
Layer spans nested in another layer span (those splits) are reported but
not summed again, so the outermost layer spans add up to the op, and what
they leave over is ``unattributed_ms``.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: span name -> per-layer metric it feeds
LAYER_SPANS = {
    "bench:handle.from_graph": "handle.from_graph_ms",
    "bench:plan.diameter": "plan.diameter_ms",
    "bench:plan.mst": "plan.mst_ms",
    "bench:plan.links": "plan.links_ms",
    "bench:plan.instance": "plan.instance_ms",
    "bench:delta.reweight": "delta.reweight_ms",
    "bench:delta.from_delta": "delta.from_delta_ms",
    "bench:tap.solve": "tap.solve_ms",
    "tap.forward": "tap.forward_ms",
    "tap.reverse": "tap.reverse_ms",
    "tap.certificates": "tap.certificates_ms",
    "bench:assemble.tap": "assemble.tap_ms",
    "bench:assemble.two_ecss": "assemble.two_ecss_ms",
    "bench:batch.solve": "batch.solve_ms",
    "batch.group": "batch.group_ms",
    "batch.forward": "batch.forward_ms",
    "batch.tails": "batch.tails_ms",
}


class Ledger:
    """Per-op mean layer times over a run of traced ops."""

    def __init__(self) -> None:
        self.ops = 0
        self.total_ms: "defaultdict[str, float]" = defaultdict(float)
        self.unattributed_ms = 0.0

    def add(self, root) -> None:
        """Account one finished ``bench.op`` span tree."""
        self.ops += 1
        attributed = 0.0
        stack = [(root, False)]
        while stack:
            node, inside_layer = stack.pop()
            metric = LAYER_SPANS.get(node.name)
            if metric is not None:
                self.total_ms[metric] += node.duration_s * 1e3
                if not inside_layer:
                    attributed += node.duration_s
            stack.extend(
                (child, inside_layer or metric is not None)
                for child in node.children
            )
        self.unattributed_ms += (root.duration_s - attributed) * 1e3

    def means(self) -> dict:
        """``{metric: mean ms per op}`` plus ``unattributed_ms``."""
        ops = max(1, self.ops)
        out = {name: total / ops for name, total in self.total_ms.items()}
        out["unattributed_ms"] = self.unattributed_ms / ops
        return out


def percentile(samples: "list[float]", q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0 <= q <= 100)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
