"""Event-stream trace record & replay (§V.G, evaluation-tools idea 2).

"We can collect input/output traces of each component via the ILLIXR
runtime on a real machine, and organize them like a rosbag to drive
simulations of components of interest."

:class:`TraceRecorder` taps switchboard topics during a run and stores
every event; :func:`install_replay` re-publishes a recorded trace into a
fresh engine+switchboard at the original timestamps, so a component under
study (e.g. a new VIO) can be driven by exactly the sensor stream a
previous run saw -- without the rest of the system.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.switchboard import Switchboard
from repro.sim.engine import Engine


@dataclass(frozen=True)
class TraceEvent:
    """One recorded publication."""

    topic: str
    publish_time: float
    data_time: Optional[float]
    data: Any


@dataclass
class Trace:
    """A rosbag-like recording of selected topics."""

    topics: Tuple[str, ...]
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Time of the last recorded event."""
        return self.events[-1].publish_time if self.events else 0.0

    def counts(self) -> Dict[str, int]:
        """Events per topic."""
        result: Dict[str, int] = {}
        for event in self.events:
            result[event.topic] = result.get(event.topic, 0) + 1
        return result

    def save(self, path: str) -> None:
        """Persist the trace (pickle: payloads are arbitrary objects)."""
        with open(path, "wb") as handle:
            pickle.dump(self, handle)

    @staticmethod
    def load(path: str) -> "Trace":
        """Load a trace saved with :meth:`save`."""
        with open(path, "rb") as handle:
            trace = pickle.load(handle)
        if not isinstance(trace, Trace):
            raise TypeError(f"{path} does not contain a Trace")
        return trace


class TraceRecorder:
    """Taps a switchboard and accumulates a :class:`Trace`.

    Install *before* the run starts:

    .. code-block:: python

        runtime = build_runtime(DESKTOP, "sponza", config)
        recorder = TraceRecorder(runtime.switchboard, ["camera", "imu"])
        result = runtime.run()
        recorder.trace.save("sensors.trace")
    """

    def __init__(self, switchboard: Switchboard, topics: Iterable[str]) -> None:
        topics = tuple(topics)
        if not topics:
            raise ValueError("record at least one topic")
        self.trace = Trace(topics=topics)
        for topic in topics:
            switchboard.topic(topic).subscribe_callback(self._make_tap(topic))

    def _make_tap(self, topic: str):
        def tap(event) -> None:
            self.trace.events.append(
                TraceEvent(
                    topic=topic,
                    publish_time=event.publish_time,
                    data_time=event.data_time,
                    data=event.data,
                )
            )

        return tap


def install_replay(engine: Engine, switchboard: Switchboard, trace: Trace) -> None:
    """Re-publish a trace into ``switchboard`` at the recorded times.

    The replay runs as a DES process, so consumers (plugins registered on
    the same engine) see the events exactly as in the original run --
    the offline camera+IMU component of §II-B generalized to any topic.
    """

    def replayer(eng: Engine):
        for event in trace.events:
            if event.publish_time > eng.now:
                yield eng.timeout(event.publish_time - eng.now)
            switchboard.topic(event.topic).put(
                eng.now, event.data, data_time=event.data_time
            )

    engine.process(replayer(engine), name="trace-replay")
