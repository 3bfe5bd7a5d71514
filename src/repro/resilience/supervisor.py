"""Per-plugin supervision: crash counting, backoff, watchdog, quarantine.

The supervisor sits between the scheduler and the plugins.  For every
invocation it observes one of three outcomes:

- **success** -- the consecutive-failure counter resets;
- **crash** (an exception out of ``plugin.iteration``, injected or real)
  -- the plugin is retried once after an exponential backoff; a poison
  trigger event that still fails after the retry is routed to the
  dead-letter topic instead of killing the reader;
- **hang** -- a watchdog armed at ``watchdog_factor`` times the plugin's
  deadline kills the stuck invocation (releasing its CPU/GPU slots).

``max_consecutive_failures`` crashes/hangs in a row quarantine the
plugin: its driver stops, and a quarantine event is published on
:data:`SUPERVISION_TOPIC` so degradation policies can react (e.g. the
integrator falls back to IMU-only propagation when VIO is quarantined).

State machine per plugin::

    healthy --crash/hang--> backing-off --retry ok--> healthy
       ^                        |
       |                        +--(N consecutive failures)--> quarantined
       +--success---------------+                                  (terminal)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Quarantine notices from the supervisor and degradation notices from
#: plugins; the integrator falls back to IMU-only propagation when it sees
#: VIO quarantined here.
SUPERVISION_TOPIC = "supervision"
#: Poison trigger events, routed here instead of killing their reader.
DEAD_LETTER_TOPIC = "dead_letter"
#: Every lifecycle event (crash, hang, retry, quarantine, dead_letter,
#: degraded), so traced chaos runs show the supervisor's actions on their
#: own lane (see repro.obs).
OBSERVABILITY_TOPIC = "sys/observability"


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervision layer (all virtual-time seconds)."""

    max_consecutive_failures: int = 6    # crashes/hangs in a row before quarantine
    max_retries_per_invocation: int = 1  # bounded retry of one invocation
    backoff_initial: float = 0.02        # first retry delay
    backoff_factor: float = 2.0          # exponential growth per consecutive failure
    backoff_max: float = 0.25            # backoff ceiling
    watchdog_factor: float = 4.0         # hang threshold, in units of the deadline
    watchdog_default: float = 0.25       # hang threshold for deadline-less plugins

    def __post_init__(self) -> None:
        if self.max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be >= 1")
        if self.max_retries_per_invocation < 0:
            raise ValueError("max_retries_per_invocation must be >= 0")
        if not 0 < self.backoff_initial <= self.backoff_max < math.inf:
            raise ValueError("backoff window must satisfy 0 < initial <= max < inf")
        if not 1 <= self.backoff_factor < math.inf:
            raise ValueError(f"backoff_factor must be finite and >= 1, got {self.backoff_factor}")
        if not 1 < self.watchdog_factor < math.inf:
            raise ValueError(f"watchdog_factor must be finite and exceed 1.0, got {self.watchdog_factor}")
        if not 0 < self.watchdog_default < math.inf:
            raise ValueError(
                f"watchdog_default must be finite and positive, got {self.watchdog_default}"
            )


@dataclass(frozen=True)
class SupervisionEvent:
    """One observation of the supervision layer (also published on the
    ``supervision`` topic so plugins can react to each other's health)."""

    time: float
    plugin: str
    kind: str      # crash | hang | retry | quarantine | dead_letter | degraded
    detail: str = ""


@dataclass
class PluginHealth:
    """Mutable per-plugin health ledger."""

    name: str
    crashes: int = 0
    hangs: int = 0
    retries: int = 0
    dead_letters: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False
    quarantined_at: Optional[float] = None

    @property
    def state(self) -> str:
        if self.quarantined:
            return "quarantined"
        return "backing-off" if self.consecutive_failures else "healthy"


class RuntimeSupervisor:
    """Aggregates per-plugin health and implements the supervision policy."""

    def __init__(self, config: Optional[SupervisorConfig] = None) -> None:
        if config is not None and not isinstance(config, SupervisorConfig):
            raise TypeError(f"supervision takes a SupervisorConfig, got {config!r}")
        self.config = config or SupervisorConfig()
        self.health: Dict[str, PluginHealth] = {}
        self.events: List[SupervisionEvent] = []
        self._switchboard = None
        self._engine = None

    def attach(self, switchboard, engine) -> None:
        """Wire the supervisor to a run's switchboard and engine.

        Subscribes to the supervision topic so degradation notices
        published *by plugins* (e.g. the integrator announcing IMU-only
        fallback) land in the same event ledger.
        """
        self._switchboard = switchboard
        self._engine = engine

        def collect(event) -> None:
            notice = event.data
            if isinstance(notice, SupervisionEvent) and notice.kind == "degraded":
                self._emit(notice)

        switchboard.topic(SUPERVISION_TOPIC).subscribe_callback(collect)

    def _emit(self, event: SupervisionEvent) -> None:
        """Ledger the event and route it onto the observability topic.

        Uses ``deliver`` (not ``put``): supervision traffic must never
        itself be faulted.  Without a switchboard (standalone unit use)
        the ledger alone is kept.
        """
        self.events.append(event)
        if self._switchboard is not None:
            self._switchboard.topic(OBSERVABILITY_TOPIC).deliver(event.time, event)

    # ------------------------------------------------------------------
    # Outcome handlers (called by the scheduler)
    # ------------------------------------------------------------------

    def plugin_health(self, name: str) -> PluginHealth:
        if name not in self.health:
            self.health[name] = PluginHealth(name)
        return self.health[name]

    def is_quarantined(self, name: str) -> bool:
        entry = self.health.get(name)
        return entry is not None and entry.quarantined

    def on_success(self, name: str) -> None:
        entry = self.health.get(name)
        if entry is not None:
            entry.consecutive_failures = 0

    def record_failure(self, name: str, time: float, exc: BaseException, kind: str = "crash") -> str:
        """Count one crash/hang; returns ``"retry"`` or ``"quarantine"``."""
        entry = self.plugin_health(name)
        if kind == "hang":
            entry.hangs += 1
        else:
            entry.crashes += 1
        entry.consecutive_failures += 1
        self._emit(SupervisionEvent(time, name, kind, repr(exc)))
        if entry.consecutive_failures >= self.config.max_consecutive_failures:
            self._quarantine(name, time)
            return "quarantine"
        return "retry"

    def record_retry(self, name: str, time: float, delay: float) -> None:
        self.plugin_health(name).retries += 1
        self._emit(SupervisionEvent(time, name, "retry", f"backoff={delay:.4f}"))

    def backoff_delay(self, name: str) -> float:
        """Exponential backoff keyed to the consecutive-failure count."""
        entry = self.plugin_health(name)
        exponent = max(entry.consecutive_failures - 1, 0)
        delay = self.config.backoff_initial * self.config.backoff_factor**exponent
        return min(delay, self.config.backoff_max)

    def watchdog_timeout(self, deadline: Optional[float]) -> float:
        """How long an invocation may run before it counts as hung."""
        if deadline is not None and deadline > 0:
            return self.config.watchdog_factor * deadline
        return self.config.watchdog_default

    def dead_letter(self, name: str, time: float, event: Any, exc: BaseException) -> None:
        """Route a poison trigger event to the dead-letter topic."""
        entry = self.plugin_health(name)
        entry.dead_letters += 1
        self._emit(SupervisionEvent(time, name, "dead_letter", repr(exc)))
        if self._switchboard is not None:
            topic = self._switchboard.topic(DEAD_LETTER_TOPIC)
            topic.deliver(time, event, data_time=getattr(event, "effective_data_time", None))

    def _quarantine(self, name: str, time: float) -> None:
        entry = self.plugin_health(name)
        if entry.quarantined:
            return
        entry.quarantined = True
        entry.quarantined_at = time
        notice = SupervisionEvent(time, name, "quarantine", f"after {entry.consecutive_failures} consecutive failures")
        self._emit(notice)
        if self._switchboard is not None:
            self._switchboard.topic(SUPERVISION_TOPIC).deliver(time, notice)

    # ------------------------------------------------------------------

    def quarantined_plugins(self) -> List[str]:
        return sorted(n for n, h in self.health.items() if h.quarantined)

    def events_of_kind(self, kind: str) -> List[SupervisionEvent]:
        return [e for e in self.events if e.kind == kind]

    def report(self) -> Dict[str, object]:
        """JSON-serializable supervision summary for ``RuntimeResult.summary``."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {
            "plugins": {
                name: {
                    "state": h.state,
                    "crashes": h.crashes,
                    "hangs": h.hangs,
                    "retries": h.retries,
                    "dead_letters": h.dead_letters,
                }
                for name, h in sorted(self.health.items())
            },
            "quarantined": self.quarantined_plugins(),
            "event_counts": counts,
            "degradations": [
                {"time": round(e.time, 6), "plugin": e.plugin, "detail": e.detail}
                for e in self.events_of_kind("degraded")
            ],
        }
