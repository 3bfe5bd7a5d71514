"""Causal span tracing on the simulated clock.

A :class:`Span` is one timed unit of work -- a plugin invocation, a
resource phase inside it, or a kernel's ``span()`` block nested within.
Spans form trees via ``parent_id`` (synchronous causality: the trigger
event that spawned an invocation) and DAGs via :class:`SpanLink`
(asynchronous causality: a ``get_latest`` read of a topic mid-iteration).
Together they let :mod:`repro.obs.critical_path` walk a displayed frame
back to the IMU sample that produced its pose.

The tracer is deliberately unaware of wall time: span timestamps come
from the engine clock it is given, so traces are deterministic across
machines and comparable across seeds.  The only wall-clock quantities in
a trace are the ``wall_s`` attributes on ``kernel`` spans recorded by
:mod:`repro.perf.profile`, which measure *host* cost of real kernels at
a simulated-time location.

Because the DES engine is single-threaded and ``plugin.iteration`` runs
synchronously between yields, a plain activation stack is sufficient for
"current span" bookkeeping; the scheduler activates an invocation's span
only around its synchronous sections (the iteration call and the output
publishes), never across a ``yield``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.context import TraceContext


@dataclass(frozen=True)
class SpanLink:
    """An asynchronous-read edge: the consuming span saw this event."""

    topic: str
    sequence: int
    publish_time: float
    data_time: Optional[float]
    context: Optional[TraceContext]

    @property
    def effective_data_time(self) -> float:
        """The linked datum's own timestamp (mirrors ``StampedEvent``)."""
        return self.publish_time if self.data_time is None else self.data_time


@dataclass
class Span:
    """One timed unit of work on the simulated clock."""

    name: str
    track: str                    # display lane: plugin name or subsystem
    kind: str                     # invocation | phase | kernel | mark
    start: float
    trace_id: int
    span_id: int
    parent_id: Optional[int] = None
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    links: List[SpanLink] = field(default_factory=list)

    @property
    def context(self) -> TraceContext:
        """This span's coordinates, as stamped onto published events."""
        return TraceContext(self.trace_id, self.span_id, self.parent_id)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated-time duration (0.0 while unfinished)."""
        return (self.end - self.start) if self.end is not None else 0.0


class _Activation:
    """The context manager :meth:`Tracer.activate` returns: pushes the span
    on the activation stack on entry and pops it on exit.  A slotted class,
    not a generator: the scheduler enters one twice per traced invocation."""

    __slots__ = ("_stack", "_span")

    def __init__(self, stack: List[Span], span: Span) -> None:
        self._stack = stack
        self._span = span

    def __enter__(self) -> Span:
        self._stack.append(self._span)
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._stack.pop()


class Tracer:
    """Allocates, activates, and stores spans for one run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._stack: List[Span] = []
        self._next_span = 1
        self._next_trace = 1

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind the simulated clock (done when attaching to an engine)."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    def start_span(
        self,
        name: str,
        track: str,
        kind: str = "phase",
        parent: Optional[TraceContext] = None,
        start: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span.  Parentage, in priority order: the explicit
        ``parent`` context, else the currently active span, else a fresh
        trace root."""
        if parent is None and self._stack:
            parent = self._stack[-1].context
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name=name,
            track=track,
            kind=kind,
            start=self.now if start is None else start,
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=parent_id,
            attributes=dict(attributes or {}),
        )
        self._next_span += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def end_span(self, span: Span, end: Optional[float] = None) -> Span:
        """Close a span (idempotent only in the sense that later calls
        overwrite the end time; spans are not reusable)."""
        span.end = self.now if end is None else end
        return span

    def activate(self, span: Span) -> "_Activation":
        """Make ``span`` the current span for the duration of a ``with`` block.

        Only valid around *synchronous* code: never hold an activation
        across a DES ``yield``.
        """
        return _Activation(self._stack, span)

    @contextmanager
    def span(
        self,
        name: str,
        track: str,
        kind: str = "phase",
        parent: Optional[TraceContext] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Span]:
        """Open, activate, and close a span around a synchronous block."""
        opened = self.start_span(name, track, kind=kind, parent=parent, attributes=attributes)
        with self.activate(opened):
            try:
                yield opened
            finally:
                self.end_span(opened)

    # ------------------------------------------------------------------
    # Current-span conveniences
    # ------------------------------------------------------------------

    def current(self) -> Optional[Span]:
        """The innermost active span, or None outside any activation."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes: Any) -> None:
        """Set attributes on the current span (no-op when none active)."""
        span = self.current()
        if span is not None:
            span.attributes.update(attributes)

    def link(self, link: SpanLink) -> None:
        """Attach an async-read edge to the current span (no-op if none)."""
        span = self.current()
        if span is not None:
            span.links.append(link)

    def mark(self, name: str, track: str, attributes: Optional[Dict[str, Any]] = None) -> Span:
        """A zero-duration instant span (supervision events, drops)."""
        span = self.start_span(name, track, kind="mark", attributes=attributes)
        span.end = span.start
        return span

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        """The span with this id, or None."""
        return self._by_id.get(span_id)

    def by_track(self, track: str) -> List[Span]:
        """All spans on one track, in creation order."""
        return [s for s in self.spans if s.track == track]

    def finished(self) -> List[Span]:
        """All closed spans, in creation order."""
        return [s for s in self.spans if s.end is not None]

    def ancestry(self, span: Span) -> List[Span]:
        """The parent chain from ``span`` (exclusive) up to its trace root."""
        chain: List[Span] = []
        current = span
        while current.parent_id is not None:
            parent = self._by_id.get(current.parent_id)
            if parent is None:
                break
            chain.append(parent)
            current = parent
        return chain
