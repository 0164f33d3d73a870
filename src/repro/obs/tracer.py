"""The hierarchical span tracer.

A :class:`Span` is one timed region of the pipeline: it has a name, a
start/end time, free-form attributes, timestamped events and integer
counters, and it nests — the span open when another span starts
becomes its parent. Nesting is tracked through a
:class:`contextvars.ContextVar`, so spans opened inside a stage worker
thread still attach to the stage span as long as the caller copies its
context into the thread (:class:`~repro.resilience.runner.StageRunner`
does).

The clock is injectable (``Tracer(clock=...)``) so tests can produce
bit-identical traces; the default is :func:`time.perf_counter`.

Every plan records into a real tracer; its span tree is the run's one
telemetry record, of which the run ledger, the perf stage table and
the metrics are views. Direct library calls default to
:data:`NOOP_TRACER`: its
``span()`` hands back one shared, immutable no-op span (no allocation
per call beyond the keyword dict the call site builds), so leaving
instrumentation in hot code costs a dict build and a method call —
nothing else. Call sites that would compute *expensive* attributes
should guard on ``tracer.enabled``.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "NoopTracer", "NOOP_TRACER"]


class Span:
    """One timed, attributed region; use as a context manager."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "events",
        "counters",
        "_tracer",
        "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = 0  # assigned on __enter__
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.end: Optional[float] = None
        self.attrs = attrs
        self.events: List[Tuple[str, float, Dict[str, Any]]] = []
        self.counters: Dict[str, int] = {}
        self._token: Optional[contextvars.Token] = None

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Wall time of the span (up to now while it is still open)."""
        end = self.end if self.end is not None else self._tracer.now()
        return end - self.start

    def set(self, **attrs: Any) -> None:
        """Merge attributes into the span."""
        self.attrs.update(attrs)

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def event(self, name: str, **attrs: Any) -> None:
        """Record a timestamped point event inside the span."""
        self.events.append((name, self._tracer.now(), attrs))

    def count(self, name: str, n: int = 1) -> None:
        """Bump an integer counter on the span."""
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._close(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.elapsed:.6f}s"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Tracer:
    """Collects spans; finished spans land in :attr:`spans`.

    Args:
        clock: Monotonic time source (seconds as float). Injecting a
            deterministic clock makes traces reproducible in tests.
        meta: Free-form metadata written into the trace header.

    Listeners registered with :meth:`add_listener` observe every span
    open/close — that is how the metrics registry, the resource
    monitor and the progress stream see spans from other threads,
    where the nesting ContextVar is invisible.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter, meta: Optional[Dict[str, Any]] = None):
        self._clock = clock
        self.meta: Dict[str, Any] = dict(meta or {})
        self.spans: List[Span] = []  # finish order: children before parents
        self._ids = itertools.count(1)
        self._listeners: List[Any] = []
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar(f"repro-obs-{id(self)}", default=None)
        )

    def now(self) -> float:
        return self._clock()

    def span(self, name: str, **attrs: Any) -> Span:
        """Create a span; it opens (and nests) on ``__enter__``."""
        return Span(self, name, attrs)

    @property
    def current(self):
        """The innermost open span, or a no-op span when none is open.

        Always safe to call ``.set`` / ``.event`` / ``.count`` on the
        result, so call sites can annotate "whatever stage I am inside"
        without knowing whether they run traced.
        """
        span = self._current.get()
        return span if span is not None else _NOOP_SPAN

    # ------------------------------------------------------------------
    def add_listener(self, listener: Any) -> None:
        """Register an object with ``on_open(span)`` / ``on_close(span)``.

        ``on_open`` fires after the span has its id, parent and start
        time; ``on_close`` fires after ``end`` is set and attributes are
        final, but before the span lands in :attr:`spans`. Listeners
        may mutate ``span.attrs`` (the monitor stamps resource usage);
        exceptions propagate — observability bugs should be loud in
        tests, and listeners are only attached on explicitly
        instrumented or metered runs.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: Any) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    def _open(self, span: Span) -> None:
        parent = self._current.get()
        span.span_id = next(self._ids)
        span.parent_id = parent.span_id if parent is not None else None
        span.start = self.now()
        span._token = self._current.set(span)
        if self._listeners:
            for listener in self._listeners:
                listener.on_open(span)

    def _close(self, span: Span) -> None:
        span.end = self.now()
        if span._token is not None:
            try:
                self._current.reset(span._token)
            except ValueError:
                # Closed in a different context than it was opened in
                # (e.g. an abandoned timeout thread); the var in *this*
                # context was never set, nothing to restore.
                self._current.set(None)
            span._token = None
        if self._listeners:
            for listener in self._listeners:
                listener.on_close(span)
        self.spans.append(span)


class _NoopSpan:
    """Shared inert span; every method is a no-op."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    start = 0.0
    end = 0.0
    elapsed = 0.0
    attrs: Dict[str, Any] = {}
    events: List[Tuple[str, float, Dict[str, Any]]] = []
    counters: Dict[str, int] = {}

    def set(self, **attrs: Any) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The default tracer: records nothing, allocates nothing.

    ``span()`` returns one shared span object regardless of arguments,
    so instrumented code paths run at full speed when tracing is off.
    """

    enabled = False
    meta: Dict[str, Any] = {}
    spans: List[Span] = []

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **attrs: Any) -> _NoopSpan:
        return _NOOP_SPAN

    @property
    def current(self) -> _NoopSpan:
        return _NOOP_SPAN

    def add_listener(self, listener: Any) -> None:
        pass

    def remove_listener(self, listener: Any) -> None:
        pass


#: Process-wide no-op tracer; the default everywhere a tracer is optional.
NOOP_TRACER = NoopTracer()
