"""Unified observability: causal tracing and critical-path MTP.

Three previously disconnected telemetry islands -- the §III-E invocation
records (:mod:`repro.core.records`), the wall-clock kernel profiler
(:mod:`repro.perf.profile`), and the rosbag-style event recorder
(:mod:`repro.analysis.trace`) -- meet here:

- :mod:`repro.obs.tracer` -- causal spans on the simulated clock, with
  trace contexts propagated through every switchboard event;
- :mod:`repro.obs.observability` -- the facade that wires the tracer
  into the switchboard, the scheduler and the supervisor's
  ``sys/observability`` topic;
- :mod:`repro.obs.export` -- Chrome trace-event JSON (Perfetto-loadable)
  with flow arrows along event lineage;
- :mod:`repro.obs.critical_path` -- per-frame MTP decomposition walked
  from span trees alone.

Opt in with ``build_runtime(..., observability=True)``; with it off,
every hook in the core is a single ``None``-check (the same
zero-overhead discipline as :mod:`repro.resilience`).
"""

from repro.obs.context import TraceContext
from repro.obs.critical_path import (
    FrameCriticalPath,
    critical_paths,
    decomposition_summary,
    lineage_fraction,
    render_report,
)
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.observability import Observability
from repro.obs.tracer import Span, SpanLink, Tracer

__all__ = [
    "FrameCriticalPath",
    "Observability",
    "Span",
    "SpanLink",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "critical_paths",
    "decomposition_summary",
    "lineage_fraction",
    "render_report",
    "validate_chrome_trace",
]
