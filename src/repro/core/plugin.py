"""Plugin architecture: components as interchangeable units.

Each ILLIXR component (Table II of the paper) is a plugin.  A plugin
declares *how* it is triggered (periodically, on publication of a topic, or
against vsync), does its algorithmic work in :meth:`Plugin.iteration`, and
returns the outputs to publish plus a complexity scalar that scales the
platform timing model for this invocation (input-dependent components such
as VIO and the application report varying complexity; see §IV-A1).

The scheduler -- not the plugin -- decides when the invocation's outputs
become visible: they are published at the invocation's *completion* time on
the simulated platform, so downstream consumers experience realistic data
ages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, NamedTuple, Optional, Tuple

from repro.core.phonebook import Phonebook
from repro.core.switchboard import Switchboard


@dataclass(frozen=True)
class Periodic:
    """Run every ``period`` seconds; skip the tick if still running."""

    period: float

    def __post_init__(self) -> None:
        # A NaN or infinite period would leave the driver spinning at t=0.
        if not 0 < self.period < math.inf:
            raise ValueError(f"period must be finite and positive, got {self.period}")


@dataclass(frozen=True)
class OnTopic:
    """Run when ``topic`` publishes (a synchronous dependence, Fig. 2)."""

    topic: str


@dataclass(frozen=True)
class OnVsync:
    """Run as late as possible before each vsync (footnote 5 of the paper).

    The scheduler starts the plugin ``lead`` seconds before each vsync so
    that it reads the freshest pose; ``lead`` is typically the component's
    high-percentile modeled execution time.
    """

    period: float
    lead: float

    def __post_init__(self) -> None:
        if not 0 < self.lead <= self.period:
            raise ValueError(
                f"lead must be in (0, period]; got lead={self.lead} period={self.period}"
            )


Trigger = Periodic | OnTopic | OnVsync


@dataclass
class Output:
    """One datum to publish when the invocation completes."""

    topic: str
    data: Any
    data_time: Optional[float] = None


@dataclass
class IterationResult:
    """What one plugin invocation produced.

    ``complexity`` multiplies the timing model's sampled execution time for
    this invocation (1.0 = typical work).  ``skipped`` marks invocations
    that found no work to do (e.g. VIO with no new camera frame); these are
    not counted as frames.  ``extra_delay`` adds wall time that occupies
    *no local resource* -- the remote-compute + network round trip of an
    offloaded component (§II footnote 2).
    """

    outputs: List[Output] = field(default_factory=list)
    complexity: float = 1.0
    skipped: bool = False
    extra_delay: float = 0.0

    def publish(self, topic: str, data: Any, data_time: Optional[float] = None) -> None:
        """Queue ``data`` for publication on ``topic`` at completion time."""
        self.outputs.append(Output(topic, data, data_time))


class InvocationContext(NamedTuple):
    """Facts about the current invocation, passed to ``iteration``."""

    now: float
    index: int
    trigger_event: Any = None


class Plugin:
    """Base class for all runtime components.

    Subclasses set the class attributes and implement :meth:`iteration`.
    ``component`` keys into the platform timing/power/microarchitecture
    models; several plugins may share a component key only if they are
    alternative implementations of the same component.
    """

    name: str = "plugin"
    component: str = "generic"
    pipeline: str = "perception"
    # GPU context priority on platforms with priority contexts (lower runs
    # first); the compositor's reprojection context sets -1.
    gpu_priority: int = 0

    def __init__(self, trigger: Trigger) -> None:
        self.trigger = trigger
        self.switchboard: Optional[Switchboard] = None
        self.phonebook: Optional[Phonebook] = None
        # The run's observability facade (repro.obs), or None when the
        # run is untraced; resolved in setup().  Plugins wanting richer
        # traces call ``self.obs.annotate(...)`` behind a None-check.
        self.obs: Optional[Any] = None

    def setup(self, phonebook: Phonebook, switchboard: Switchboard) -> None:
        """Wire up streams/services.  Subclasses should call super().setup."""
        self.phonebook = phonebook
        self.switchboard = switchboard
        self.obs = phonebook.lookup("observability") if "observability" in phonebook else None

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        """Do one invocation's work; must be overridden."""
        raise NotImplementedError

    def finalize(self) -> None:
        """Hook called once when the run ends (e.g. flush buffered state)."""

    def reset(self, reason: Optional[BaseException] = None) -> None:
        """Hook called by the supervisor before retrying a crashed invocation.

        A restart is allowed to lose in-memory state (that is the point:
        it models relaunching the component process).  Subclasses with
        internal estimators should drop them here so the retry starts
        from a clean slate; the default keeps everything.
        """

    def describe(self) -> Tuple[str, str, str]:
        """(name, pipeline, component) -- used for Table II style reports."""
        return (self.name, self.pipeline, self.component)
