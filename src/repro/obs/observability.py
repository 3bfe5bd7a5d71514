"""The unified observability facade: one object the runtime wires in.

An :class:`Observability` instance owns a :class:`~repro.obs.tracer.Tracer`
and implements the hook protocols the core exposes:

- the **switchboard observer** (``publish_context`` / ``on_publish`` /
  ``on_read``), which stamps trace contexts onto events at ``put``, turns
  reads into lineage links and keeps each topic's queue high-water mark;
- the **scheduler hooks** (``begin_invocation`` / ``note_attempt`` /
  ``on_attempt_error`` / ``end_invocation``), which wrap every plugin
  invocation in a span;
- a subscriber on the supervisor's ``sys/observability`` topic
  (:data:`~repro.resilience.supervisor.OBSERVABILITY_TOPIC`), which converts
  supervisor lifecycle events (crash, retry, quarantine, dead-letter,
  degraded) into instant spans so chaos runs are visible in exported
  traces.

It keeps no counters: invocations, drops, deadline misses and kills are in
the run's :class:`~repro.core.records.RecordLogger`, supervisor events in
its supervision report, injected faults in its fault log, MTP in its
samples, and publishes in ``Topic.count`` (see docs/observability.md).

Every hook site in the core is a ``None``-check: with no Observability
attached, the runtime pays one attribute load and a branch -- the same
zero-overhead discipline as the resilience layer.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.context import TraceContext
from repro.obs.tracer import Span, SpanLink, Tracer
from repro.resilience.supervisor import OBSERVABILITY_TOPIC


class Observability:
    """Tracer + the hook protocol implementations."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        # Deepest sync-reader queue seen per topic: the one count no other
        # artifact of a run keeps.
        self.queue_high_water: Dict[str, int] = {}
        self._switchboard = None

    # ------------------------------------------------------------------
    # Runtime wiring
    # ------------------------------------------------------------------

    def attach(self, engine, switchboard) -> None:
        """Bind to a run: clock, switchboard observer, sys-topic tap."""
        self._switchboard = switchboard
        self.tracer.set_clock(lambda: engine.now)
        switchboard.install_observer(self)
        switchboard.topic(OBSERVABILITY_TOPIC).subscribe_callback(self._on_sys_event)

    # ------------------------------------------------------------------
    # Switchboard observer protocol
    # ------------------------------------------------------------------

    def publish_context(self, topic_name: str) -> Optional[TraceContext]:
        """The trace context to stamp onto an event being published now:
        the publishing invocation's span, if one is active."""
        span = self.tracer.current()
        return span.context if span is not None else None

    def on_publish(self, topic, event) -> None:
        """Queue high-water mark after one delivery (called from ``deliver``)."""
        queues = topic._queues
        if queues:
            depth = max(map(len, queues))
            if depth > self.queue_high_water.get(topic.name, 0):
                self.queue_high_water[topic.name] = depth

    def on_read(self, topic_name: str, event) -> None:
        """An asynchronous read observed inside an active span becomes a
        lineage link on that span."""
        span = self.tracer.current()
        if span is not None:
            span.links.append(
                SpanLink(
                    topic=topic_name,
                    sequence=event.sequence,
                    publish_time=event.publish_time,
                    data_time=event.data_time,
                    context=event.trace,
                )
            )

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------

    def begin_invocation(
        self, plugin, start: float, trigger_event, index: int
    ) -> Span:
        """Open the span for one plugin invocation.

        A triggered invocation continues the trigger event's trace (the
        synchronous dependence of Fig. 2); a periodic one roots a fresh
        trace -- sensor ticks are where lineage begins.
        """
        parent = getattr(trigger_event, "trace", None) if trigger_event is not None else None
        attributes: Dict[str, Any] = {
            "component": plugin.component,
            "pipeline": plugin.pipeline,
            "index": index,
        }
        if trigger_event is not None:
            attributes["trigger_publish_time"] = trigger_event.publish_time
        return self.tracer.start_span(
            f"{plugin.name}#{index}",
            track=plugin.name,
            kind="invocation",
            parent=parent,
            start=start,
            attributes=attributes,
        )

    def note_attempt(self, span: Span, now: float, attempt: int) -> None:
        """Record when iteration work actually began (retries move it)."""
        span.attributes["iteration_at"] = now
        span.attributes["attempts"] = attempt + 1

    def on_attempt_error(self, span: Span, now: float, exc: BaseException) -> None:
        span.attributes["error"] = repr(exc)
        self.tracer.mark(
            "crash", track=span.track, attributes={"error": repr(exc), "at": now}
        )

    def end_invocation(
        self,
        span: Span,
        end: float,
        cpu_time: float = 0.0,
        gpu_time: float = 0.0,
        swap_time: Optional[float] = None,
        missed_deadline: bool = False,
        killed: bool = False,
        skipped: bool = False,
    ) -> None:
        """Close an invocation span with the scheduler's outcome."""
        span.attributes["cpu_time"] = cpu_time
        span.attributes["gpu_time"] = gpu_time
        if skipped:
            span.attributes["skipped"] = True
        if killed:
            span.attributes["killed"] = True
        if missed_deadline:
            span.attributes["missed_deadline"] = True
        if swap_time is not None:
            span.attributes["swap_time"] = swap_time
            if swap_time > end:
                swap = self.tracer.start_span(
                    "swap",
                    track=span.track,
                    kind="phase",
                    parent=span.context,
                    start=end,
                )
                swap.end = swap_time
        self.tracer.end_span(span, end=end)

    # ------------------------------------------------------------------
    # Plugin-facing conveniences
    # ------------------------------------------------------------------

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the current invocation span."""
        self.tracer.annotate(**attributes)

    # ------------------------------------------------------------------
    # sys/observability tap
    # ------------------------------------------------------------------

    def _on_sys_event(self, event) -> None:
        notice = event.data
        kind = getattr(notice, "kind", "event")
        plugin = getattr(notice, "plugin", "unknown")
        self.tracer.mark(
            kind,
            track=f"supervisor/{plugin}",
            attributes={"detail": getattr(notice, "detail", ""), "at": event.publish_time},
        )

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-serializable snapshot for ``RuntimeResult.summary``."""
        switchboard = self._switchboard
        return {
            "spans": len(self.tracer.spans),
            "traces": self.tracer._next_trace - 1,
            "publishes": {
                name: switchboard.topic(name).count for name in switchboard.topic_names()
            },
            "queue_high_water": dict(sorted(self.queue_high_water.items())),
        }

    # ------------------------------------------------------------------
    # No core path calls these three.  The benchmark's layer tracer
    # (perfbench/layers.py) patches each by name through
    # ``vars(Observability)[name]``, so deleting one breaks every traced
    # benchmark run; they stay until its layer map drops them.
    # ------------------------------------------------------------------

    def on_injector_drop(self, topic_name: str, kind: str) -> None:
        pass

    def on_scheduler_drop(self, plugin_name: str, scheduled_at: float) -> None:
        pass

    def record_mtp(self, sample) -> None:
        pass
