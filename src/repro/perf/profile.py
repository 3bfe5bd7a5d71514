"""Host-time instrumentation: one task timer, opt-in profiling.

:class:`TaskTimer` is the one timing primitive.  Every Table VI/VII
component owns one and wraps each of its tasks in ``with timer("task"):``,
which always adds the block's host seconds to ``timer.times`` (the
component's ``task_breakdown()``).  ``span(name)`` is a one-task timer; the
WGS, TSDF, SSIM and FLIP kernels wrap their bodies in one.

Profiling is disabled by default, so a block only updates its timer.  When
enabled (``enable_profiling()``), every ``span(...)`` block and every task
block also records wall time into a process-wide registry, tasks as
``<component>.<task>``, which ``profile_summary()`` renders as plain
dictionaries.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, Optional

_enabled = False
_records: Dict[str, Dict[str, float]] = {}
# Callers may record from several threads at once; one lock keeps each
# name's calls/total/min/max aggregate exact.
_lock = threading.Lock()
# Optional repro.obs tracer: when set, every recorded block also becomes a
# ``kernel`` span nested in the currently active plugin span, placing the
# host cost of real kernels at its simulated-time location.
_tracer: Optional[Any] = None


def enable_profiling(on: bool = True) -> None:
    """Globally switch registry recording of every timer block on or off."""
    global _enabled
    _enabled = on


def set_tracer(tracer: Optional[Any]) -> Optional[Any]:
    """Install (or, with None, remove) a span tracer; return the previous one.

    :meth:`repro.core.runtime.Runtime.run` installs a traced run's tracer
    for the run's duration and puts the previous one back.  While one is
    installed, ``_record`` emits a zero-simulated-duration ``kernel`` span
    carrying the wall time as a ``wall_s`` attribute -- but only when a
    plugin span is active, so standalone benchmark runs stay span-free.
    """
    global _tracer
    previous, _tracer = _tracer, tracer
    return previous


def _record(name: str, elapsed: float) -> None:
    with _lock:
        stats = _records.get(name)
        if stats is None:
            _records[name] = {
                "calls": 1,
                "total_s": elapsed,
                "min_s": elapsed,
                "max_s": elapsed,
            }
        else:
            stats["calls"] += 1
            stats["total_s"] += elapsed
            stats["min_s"] = min(stats["min_s"], elapsed)
            stats["max_s"] = max(stats["max_s"], elapsed)
    tracer = _tracer
    if tracer is not None and tracer.current() is not None:
        kernel = tracer.start_span(name, track=tracer.current().track, kind="kernel", attributes={"wall_s": elapsed})
        tracer.end_span(kernel, end=kernel.start)


class TaskTimer:
    """Host seconds per task of one component, in table order.

    ``times`` starts with every task name at 0.0; ``with timer("task"):``
    adds the block's wall time to ``times["task"]``, so a name outside the
    table raises ``KeyError`` instead of dropping out of the breakdown.
    While profiling is enabled the block is also recorded in the registry
    as ``<component>.<task>`` (nested as a kernel span under an attached
    tracer's active span).  One timer times one block at a time: blocks of
    the same timer must not nest.
    """

    __slots__ = ("times", "_prefix", "_task", "_start")

    def __init__(self, component: Optional[str], tasks: Iterable[str]) -> None:
        self.times: Dict[str, float] = dict.fromkeys(tasks, 0.0)
        self._prefix = f"{component}." if component else ""
        self._task = ""
        self._start = 0.0

    def __call__(self, task: str) -> "TaskTimer":
        self._task = task
        return self

    def __enter__(self) -> "TaskTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = time.perf_counter() - self._start
        self.times[self._task] += elapsed
        if _enabled:
            _record(self._prefix + self._task, elapsed)


def span(name: str) -> TaskTimer:
    """Record the wall time of a ``with`` block under ``name`` (when enabled).

    A span is a fresh one-task timer with no component, so spans nest.
    """
    return TaskTimer(None, (name,))(name)


def profile_summary(reset: bool = False) -> Dict[str, Dict[str, float]]:
    """Per-name call counts and wall-time aggregates (mean derived).

    With ``reset`` the recorded samples are discarded after reading.
    """
    with _lock:
        summary = {
            name: {**stats, "mean_s": stats["total_s"] / stats["calls"]}
            for name, stats in _records.items()
        }
        if reset:
            _records.clear()
    return summary
