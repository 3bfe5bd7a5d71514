"""Chrome trace-event export: dump a traced run for Perfetto.

:func:`chrome_trace` renders a :class:`~repro.obs.tracer.Tracer`'s spans
into the Trace Event Format consumed by ``chrome://tracing`` and
https://ui.perfetto.dev (JSON object form, ``traceEvents`` array):

- one *thread track* per span track (plugin name / supervisor lane),
  named via ``M``-phase metadata events;
- every finished span with duration becomes an ``X`` (complete) event;
  ``mark`` spans become ``i`` (instant) events;
- causal lineage becomes flow arrows (``s``/``f`` pairs): one arrow per
  parent->child trigger edge that crosses tracks, and one per
  asynchronous-read :class:`~repro.obs.tracer.SpanLink`, so a displayed
  frame visually chains back to the IMU sample that produced its pose.

Timestamps are microseconds of *simulated* time.  :func:`validate_chrome_trace`
checks the structural rules the viewers rely on and is used by the CI
gate and the test suite.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.tracer import Span, Tracer

_PID = 1


def _us(t: float) -> float:
    return t * 1e6


def chrome_trace(tracer: Tracer, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Render all finished spans as a Chrome trace-event JSON object."""
    events: List[Dict[str, Any]] = []
    tracks = sorted({span.track for span in tracer.spans})
    tids = {track: i + 1 for i, track in enumerate(tracks)}

    events.append(
        {"ph": "M", "name": "process_name", "pid": _PID, "tid": 0,
         "args": {"name": "repro (simulated time)"}}
    )
    for track, tid in tids.items():
        events.append(
            {"ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
             "args": {"name": track}}
        )
        events.append(
            {"ph": "M", "name": "thread_sort_index", "pid": _PID, "tid": tid,
             "args": {"sort_index": tid}}
        )

    for span in tracer.spans:
        if span.end is None:
            continue
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            **{k: _jsonable(v) for k, v in span.attributes.items()},
        }
        tid = tids[span.track]
        if span.kind == "mark":
            events.append(
                {"ph": "i", "name": span.name, "cat": span.kind, "s": "t",
                 "ts": _us(span.start), "pid": _PID, "tid": tid, "args": args}
            )
        else:
            events.append(
                {"ph": "X", "name": span.name, "cat": span.kind,
                 "ts": _us(span.start), "dur": _us(span.end - span.start),
                 "pid": _PID, "tid": tid, "args": args}
            )

    events.extend(_flow_events(tracer, tids))

    payload: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", **(metadata or {})},
    }
    return payload


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _flow_events(tracer: Tracer, tids: Dict[str, int]) -> List[Dict[str, Any]]:
    """Flow arrows for trigger edges and async-read links.

    Arrow identity: one id per (producer span, consumer span) pair.  The
    ``s`` step is emitted at the producer's end (the publish moment for
    trigger edges; the linked event's publish time for reads) and the
    ``f`` step at the consumer's start, with ``bp: "e"`` so the arrow
    binds to the enclosing slice.
    """
    flows: List[Dict[str, Any]] = []
    next_id = 1

    def arrow(producer: Span, consumer: Span, at_producer: float, cat: str) -> None:
        nonlocal next_id
        start_ts = _us(min(at_producer, producer.end if producer.end is not None else at_producer))
        end_ts = _us(consumer.start)
        if end_ts < start_ts:
            start_ts = end_ts
        flows.append(
            {"ph": "s", "id": next_id, "name": "lineage", "cat": cat,
             "ts": start_ts, "pid": _PID, "tid": tids[producer.track]}
        )
        flows.append(
            {"ph": "f", "bp": "e", "id": next_id, "name": "lineage", "cat": cat,
             "ts": end_ts, "pid": _PID, "tid": tids[consumer.track]}
        )
        next_id += 1

    for span in tracer.spans:
        if span.end is None or span.kind != "invocation":
            continue
        if span.parent_id is not None:
            parent = tracer.get(span.parent_id)
            if parent is not None and parent.end is not None and parent.track != span.track:
                at = span.attributes.get("trigger_publish_time", parent.end)
                arrow(parent, span, float(at), "trigger")
        for link in span.links:
            if link.context is None:
                continue
            producer = tracer.get(link.context.span_id)
            if producer is not None and producer.end is not None:
                arrow(producer, span, link.publish_time, "read")
    return flows


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural validation of a trace-event JSON object.

    Returns a list of problems (empty means the trace is loadable by
    Perfetto / chrome://tracing).  Checks the rules the viewers actually
    enforce: required per-phase fields, non-negative timestamps and
    durations, and that every flow ``s`` step has a matching ``f`` step.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    flow_starts: Dict[Any, int] = {}
    flow_ends: Dict[Any, int] = {}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in {"X", "B", "E", "i", "I", "M", "s", "t", "f", "C"}:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs non-negative dur, got {dur!r}")
        if ph in {"s", "t", "f"}:
            if "id" not in event:
                problems.append(f"{where}: flow event missing id")
            elif ph == "s":
                flow_starts[event["id"]] = flow_starts.get(event["id"], 0) + 1
            elif ph == "f":
                flow_ends[event["id"]] = flow_ends.get(event["id"], 0) + 1
    for flow_id, n in flow_starts.items():
        if flow_ends.get(flow_id, 0) != n:
            problems.append(f"flow id {flow_id!r}: {n} start(s), {flow_ends.get(flow_id, 0)} finish(es)")
    for flow_id in flow_ends:
        if flow_id not in flow_starts:
            problems.append(f"flow id {flow_id!r}: finish without start")
    return problems
