"""``Span``/``Tracer`` structured tracing (see the package docstring).

Design notes, in the order they matter:

* **One attribute check when disabled.**  Call sites use the module
  helpers :func:`span` / :func:`timer` / :func:`traced`; each reads the
  installed tracer once and tests its ``enabled`` flag before doing any
  other work.  Disabled, :func:`span` returns the shared
  :data:`NOOP_SPAN` singleton (empty ``__enter__``/``__exit__``, no
  allocation, no contextvar writes), so instrumentation is safe on hot
  paths — every perfbench workload times its end-to-end metrics with
  tracing off, through these call sites.
* **Parent linkage via contextvars.**  Entering a span sets a
  context-local "current span" and appends itself to the previous
  one's children.  Because asyncio tasks each run in a copy of the
  creating context, concurrent serve requests build independent trees
  even though they share one tracer; plain threads start fresh (their
  spans become roots), which is exactly right for the inline worker
  pool.
* **Process-portable trees.**  :meth:`Span.to_dict` /
  :meth:`Span.from_dict` round-trip through JSON-safe dicts so worker
  processes can return completed trees with their results
  (``repro.serve.workers.solve_batch_payload``) and the router can merge
  them into response ``timings`` blocks and ``/metrics`` aggregates.
* **Wall clock on purpose.**  Durations come from the monotonic
  ``perf_counter``; the *start* timestamp is ``time.time()`` so Chrome
  trace events line up across processes.  This module is the scoped
  ``det-wallclock`` lint exemption — solver code still cannot read the
  wall clock.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import threading
import time
from typing import Any, Callable, Iterator, TypeVar

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

_F = TypeVar("_F", bound=Callable[..., Any])

#: Context-local current span — the parent for the next span entered in
#: this task/thread.  Shared by every tracer so the linkage survives a
#: tracer swap mid-request.
_CURRENT: "contextvars.ContextVar[Span | None]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Span:
    """One named, timed region with attributes and child spans.

    Use as a context manager (normally via :func:`span` so the disabled
    fast path applies).  ``duration_s`` is valid after exit;
    ``start_s`` is a wall-clock epoch timestamp taken at entry.
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "start_s",
        "duration_s",
        "_t0",
        "_token",
        "_parent",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        attrs: "dict[str, Any] | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.name = name
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.children: list[Span] = []
        self.start_s = 0.0
        self.duration_s = 0.0
        self._t0 = 0.0
        self._token: "contextvars.Token[Span | None] | None" = None
        self._parent: "Span | None" = None
        self._tracer = tracer

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; returns self so it chains inside ``with``."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._parent = _CURRENT.get()
        if self._parent is not None:
            self._parent.children.append(self)
        self._token = _CURRENT.set(self)
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._parent is None and self._tracer is not None:
            self._tracer._collect_root(self)
        return False

    def walk(self) -> "Iterator[Span]":
        """Yield this span and every descendant, depth-first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def to_dict(self) -> "dict[str, Any]":
        """JSON-safe tree (the cross-process wire form)."""
        out: dict[str, Any] = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "Span":
        """Rebuild a span tree produced by :meth:`to_dict`."""
        node = cls(str(payload.get("name", "?")))
        node.start_s = float(payload.get("start_s", 0.0))
        node.duration_s = float(payload.get("duration_s", 0.0))
        attrs = payload.get("attrs")
        if isinstance(attrs, dict):
            node.attrs = dict(attrs)
        for child in payload.get("children", ()):
            if isinstance(child, dict):
                node.children.append(cls.from_dict(child))
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled.

    It never touches the contextvar, so a disabled region adds no span
    context for anything beneath it — asserted in ``tests/test_obs.py``.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Span factory plus a bounded collection of completed root trees.

    ``enabled`` is the single gate every helper checks.  Completed
    *root* spans (no parent at entry) are kept — up to ``max_roots``,
    then counted in ``dropped`` — so long-lived processes (the serve
    router) cannot grow without bound; per-request consumers read their
    root directly and never need the backlog.
    """

    __slots__ = ("enabled", "max_roots", "roots", "dropped")

    def __init__(self, enabled: bool = True, max_roots: int = 4096) -> None:
        self.enabled = enabled
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self.dropped = 0

    def span(self, name: str, **attrs: Any) -> "Span | _NoopSpan":
        """A new span under the context-local parent (or :data:`NOOP_SPAN`)."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(name, attrs or None, tracer=self)

    def _collect_root(self, root: "Span") -> None:
        if len(self.roots) < self.max_roots:
            self.roots.append(root)
        else:
            self.dropped += 1

    def drain(self) -> "list[Span]":
        """Return and clear the collected root spans."""
        roots, self.roots = self.roots, []
        return roots

    def clear(self) -> None:
        """Drop all collected roots and reset the drop counter."""
        self.roots = []
        self.dropped = 0


#: The installed tracer.  Module-global (not a contextvar) on purpose:
#: enabling tracing is a process-level decision, while *nesting* is
#: context-local via ``_CURRENT``.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The currently installed tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer``; returns the previously installed one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def enable(max_roots: int = 4096) -> Tracer:
    """Install and return a fresh enabled tracer."""
    tracer = Tracer(enabled=True, max_roots=max_roots)
    set_tracer(tracer)
    return tracer


def disable() -> Tracer:
    """Install a disabled tracer; returns the replaced one."""
    return set_tracer(Tracer(enabled=False))


def span(name: str, **attrs: Any) -> "Span | _NoopSpan":
    """A span from the installed tracer (the standard call-site helper)."""
    tracer = _TRACER
    if not tracer.enabled:
        return NOOP_SPAN
    return Span(name, attrs or None, tracer=tracer)


def current_span() -> "Span | None":
    """The context-local open span, if tracing has entered one."""
    return _CURRENT.get()


def annotate(**attrs: Any) -> None:
    """Attach attributes to the current open span (no-op without one)."""
    open_span = _CURRENT.get()
    if open_span is not None:
        open_span.attrs.update(attrs)


def traced(name: "str | None" = None) -> "Callable[[_F], _F]":
    """Decorator form: wrap a function call in a span named ``name``.

    Disabled tracing falls straight through to the wrapped function.
    """

    def wrap(fn: _F) -> _F:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def inner(*args: Any, **kwargs: Any) -> Any:
            tracer = _TRACER
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with Span(label, None, tracer=tracer):
                return fn(*args, **kwargs)

        return inner  # type: ignore[return-value]

    return wrap


class Timer:
    """A span that *always* measures, even while tracing is disabled.

    Legacy timing consumers (``SolverPlan.build_times``, serve metrics)
    need a duration unconditionally; ``Timer`` gives them one from a
    single source — when tracing is enabled the same measurement also
    becomes the span's duration, so ``build_times`` and span trees can
    never disagree.
    """

    __slots__ = ("name", "duration_s", "_t0", "_span")

    def __init__(self, name: str, attrs: "dict[str, Any] | None") -> None:
        self.name = name
        self.duration_s = 0.0
        self._t0 = 0.0
        tracer = _TRACER
        self._span = (
            Span(name, attrs, tracer=tracer) if tracer.enabled else None
        )

    def __enter__(self) -> "Timer":
        if self._span is not None:
            self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            self._span.duration_s = self.duration_s
        return False


def timer(name: str, **attrs: Any) -> Timer:
    """An always-measuring :class:`Timer` (span included when enabled)."""
    return Timer(name, attrs or None)


def phase_totals(
    spans: "Iterator[Span] | list[Span]",
    into: "dict[str, list[float]] | None" = None,
) -> "dict[str, list[float]]":
    """Aggregate ``{name: [count, total_seconds]}`` over span trees.

    This is the reduction behind the ``/metrics`` per-phase breakdown
    and the response ``timings`` block; ``into`` accumulates across
    calls.
    """
    totals = into if into is not None else {}
    for root in spans:
        for node in root.walk():
            slot = totals.get(node.name)
            if slot is None:
                totals[node.name] = [1, node.duration_s]
            else:
                slot[0] += 1
                slot[1] += node.duration_s
    return totals


def chrome_events(
    spans: "list[Span]",
    pid: "int | None" = None,
    tid: "int | None" = None,
) -> "list[dict[str, Any]]":
    """Flatten span trees to Chrome trace-event ``X`` (complete) events.

    Timestamps are wall-clock microseconds, so trees recorded in
    different processes interleave correctly on one timeline.
    """
    use_pid = os.getpid() if pid is None else pid
    use_tid = threading.get_ident() if tid is None else tid
    events: list[dict[str, Any]] = []
    for root in spans:
        for node in root.walk():
            event: dict[str, Any] = {
                "name": node.name,
                "cat": "repro",
                "ph": "X",
                "ts": node.start_s * 1e6,
                "dur": node.duration_s * 1e6,
                "pid": use_pid,
                "tid": use_tid,
            }
            if node.attrs:
                event["args"] = node.attrs
            events.append(event)
    return events


def write_chrome_trace(path: str, spans: "list[Span]") -> int:
    """Write span trees as a Chrome trace-event JSON array (one event
    per line, loadable in ``chrome://tracing`` / Perfetto); returns the
    event count."""
    events = chrome_events(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        for i, event in enumerate(events):
            suffix = ",\n" if i + 1 < len(events) else "\n"
            fh.write(json.dumps(event, separators=(",", ":")) + suffix)
        fh.write("]\n")
    return len(events)
