"""Telemetry: the logging framework of §III-E.

The paper "developed a logging framework that allows ILLIXR to easily
collect the wall clock time and CPU time of each of its components with
negligible overhead".  Here, every plugin invocation on the simulated
platform appends one :class:`InvocationRecord`; all of Fig. 3-5 and 7 and
Tables IV derive from these records.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence


class InvocationRecord(NamedTuple):
    """One plugin invocation that ran (completed or watchdog-killed).

    A trigger that found the plugin busy ran nothing and is a
    :class:`DropRecord` instead.

    Records, like the other per-invocation values (:class:`DropRecord`,
    :class:`~repro.core.plugin.InvocationContext`,
    :class:`~repro.hardware.timing.CostSample`), are immutable named
    tuples: building one is a single tuple allocation, where a frozen
    dataclass pays an ``object.__setattr__`` per field.
    """

    plugin: str
    component: str
    pipeline: str
    index: int
    scheduled_at: float
    start: float
    end: float
    cpu_time: float
    gpu_time: float
    deadline: Optional[float]
    missed_deadline: bool
    # True when the supervisor's watchdog reaped a hung invocation; such
    # records carry no cost (their CPU/GPU slots were reclaimed).
    killed: bool = False

    @property
    def wall_time(self) -> float:
        """Wall-clock duration of the invocation."""
        return self.end - self.start


class DropRecord(NamedTuple):
    """A scheduled tick that was skipped because the previous invocation
    was still running (the frame-skip behaviour of §IV-A1)."""

    plugin: str
    scheduled_at: float


@dataclass
class RecordLogger:
    """Accumulates invocation records and derives summary statistics."""

    records: List[InvocationRecord] = field(default_factory=list)
    drops: List[DropRecord] = field(default_factory=list)

    def log(self, record: InvocationRecord) -> None:
        """Append one invocation record."""
        self.records.append(record)

    def log_drop(self, plugin: str, scheduled_at: float) -> None:
        """Record a skipped tick for ``plugin``."""
        self.drops.append(DropRecord(plugin, scheduled_at))

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------

    def for_plugin(self, plugin: str) -> List[InvocationRecord]:
        """All records for one plugin, in invocation order."""
        return [r for r in self.records if r.plugin == plugin]

    def plugins(self) -> List[str]:
        """Names of all plugins that logged at least one record."""
        return sorted({r.plugin for r in self.records})

    def for_pipeline(self, pipeline: str) -> List[InvocationRecord]:
        """All records for one pipeline (perception/visual/audio/...)."""
        return [r for r in self.records if r.pipeline == pipeline]

    def pipelines(self) -> List[str]:
        """Names of all pipelines that logged at least one record."""
        return sorted({r.pipeline for r in self.records})

    def frame_rate(self, plugin: str, duration: float) -> float:
        """Achieved frames per second over ``duration`` seconds.

        Watchdog-killed invocations produced no output and do not count
        as frames.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        return sum(1 for r in self.for_plugin(plugin) if not r.killed) / duration

    def execution_times(self, plugin: str) -> List[float]:
        """Per-invocation wall times for ``plugin`` (completed only)."""
        return [r.wall_time for r in self.for_plugin(plugin) if not r.killed]

    def mean_execution_time(self, plugin: str) -> float:
        """Mean wall time; NaN if the plugin never ran."""
        times = self.execution_times(plugin)
        return sum(times) / len(times) if times else math.nan

    def std_execution_time(self, plugin: str) -> float:
        """Population standard deviation of wall time; NaN if never ran."""
        times = self.execution_times(plugin)
        if not times:
            return math.nan
        mean = sum(times) / len(times)
        return math.sqrt(sum((t - mean) ** 2 for t in times) / len(times))

    def miss_rate(self, plugin: str) -> float:
        """Fraction of invocations that missed their deadline."""
        records = self.for_plugin(plugin)
        if not records:
            return 0.0
        return sum(r.missed_deadline for r in records) / len(records)

    def cpu_time_totals(self) -> Dict[str, float]:
        """Total CPU seconds consumed per plugin.

        Watchdog-killed invocations are excluded: their slots were
        reclaimed, so they consumed no accountable cost (the scheduler
        logs them with zero times, but the exclusion is an invariant of
        the accounting, not of the producer).
        """
        totals: Dict[str, float] = defaultdict(float)
        for record in self.records:
            if not record.killed:
                totals[record.plugin] += record.cpu_time
        return dict(totals)

    def pipeline_cpu_share(self) -> Dict[str, float]:
        """Fraction of all CPU seconds attributed to each *pipeline*.

        The pipeline-level rollup of :meth:`cpu_share` (Fig. 5 groups the
        per-component shares by pipeline); killed invocations carry no
        cost here either.
        """
        totals: Dict[str, float] = defaultdict(float)
        for record in self.records:
            if not record.killed:
                totals[record.pipeline] += record.cpu_time
        grand = sum(totals.values())
        if grand == 0:
            return {name: 0.0 for name in totals}
        return {name: value / grand for name, value in totals.items()}

    def cpu_share(self) -> Dict[str, float]:
        """Fraction of all CPU cycles attributed to each plugin (Fig. 5).

        The paper computes "the total CPU cycles consumed by that component
        as a fraction of the cycles used by all components"; with a fixed
        clock frequency, CPU seconds are proportional to cycles.
        """
        totals = self.cpu_time_totals()
        grand = sum(totals.values())
        if grand == 0:
            return {name: 0.0 for name in totals}
        return {name: value / grand for name, value in totals.items()}

    def drop_count(self, plugin: str) -> int:
        """Number of skipped ticks for ``plugin``."""
        return sum(1 for d in self.drops if d.plugin == plugin)

    def kill_count(self, plugin: str) -> int:
        """Number of invocations the watchdog reaped for ``plugin``."""
        return sum(1 for r in self.records if r.plugin == plugin and r.killed)


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """(mean, population std) of ``values``; (nan, nan) when empty."""
    if not values:
        return (math.nan, math.nan)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return (mean, math.sqrt(var))
