"""Observability layer: structured tracing.

``repro.obs`` is the stdlib-only substrate the solver stack reports its
phases through; the perfbench latency ledger (``perfbench/``) reads the
same spans to attribute a request's time to layers.

:mod:`repro.obs.trace` provides ``Span``/``Tracer`` structured tracing
with context-manager and decorator APIs.  Parent linkage propagates
through a :mod:`contextvars` variable, so nesting is correct under
``repro.serve``'s asyncio loop (each task sees its own span stack) and
span trees serialize to plain dicts so worker processes can ship them
back alongside results.  When tracing is disabled (the default) the
instrumented call sites cost one attribute check and return a shared
no-op span.  perfbench measures every end-to-end metric with tracing
off, so that cost sits inside each workload's bound; its traced run
reports the enabled cost as ``obs.overhead_pct``.

Import note: this package imports nothing from the rest of ``repro``, so
any layer (``runtime``, ``fast``, ``serve``, the CLI) can instrument
itself without cycles.  It is the one package allowed to read the wall
clock (Chrome trace timestamps are epoch-based); the ``det-wallclock``
lint rule carves it out explicitly.
"""

from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Timer,
    Tracer,
    annotate,
    chrome_events,
    current_span,
    disable,
    enable,
    get_tracer,
    phase_totals,
    set_tracer,
    span,
    timer,
    traced,
    write_chrome_trace,
)

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Timer",
    "Tracer",
    "annotate",
    "chrome_events",
    "current_span",
    "disable",
    "enable",
    "get_tracer",
    "phase_totals",
    "set_tracer",
    "span",
    "timer",
    "traced",
    "write_chrome_trace",
]
