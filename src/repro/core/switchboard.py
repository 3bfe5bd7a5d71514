"""The switchboard: ILLIXR's event-stream communication framework.

Per §II-B of the paper, event streams support writes, **asynchronous reads**
(consumer asks for the latest value) and **synchronous reads** (consumer sees
every value the producer publishes).  Plugins may only interact through these
streams, which is what makes components interchangeable.

Streams are typed by topic name.  Every published event carries the virtual
time at which it was published, so consumers can compute data ages (the basis
of the motion-to-photon metric).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Generic, Iterator, List, Optional, TypeVar

T = TypeVar("T")


class _RingBuffer(Generic[T]):
    """Fixed-capacity append-only ring with O(1) random access.

    ``collections.deque`` indexes from the nearer end in O(distance), which
    turns a binary search over the history into O(n log n); a flat list
    with a rotating start keeps every probe O(1).
    """

    __slots__ = ("_items", "_capacity", "_start", "_size")

    def __init__(self, capacity: int) -> None:
        self._items: List[Any] = [None] * capacity
        self._capacity = capacity
        self._start = 0
        self._size = 0

    def append(self, item: T) -> None:
        if self._size < self._capacity:
            self._items[(self._start + self._size) % self._capacity] = item
            self._size += 1
        else:  # full: overwrite the oldest slot
            self._items[self._start] = item
            self._start = (self._start + 1) % self._capacity

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> T:
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(index)
        return self._items[(self._start + index) % self._capacity]

    def __iter__(self) -> Iterator[T]:
        for offset in range(self._size):
            yield self._items[(self._start + offset) % self._capacity]


@dataclass(frozen=True)
class StampedEvent(Generic[T]):
    """A value published on a topic, stamped with its publication time.

    ``data_time`` optionally records the timestamp of the underlying datum
    (e.g. the IMU sample time behind a pose estimate), which can be older
    than ``publish_time`` -- their difference is the data's age at
    publication.

    ``trace`` carries the publishing invocation's trace context (see
    :mod:`repro.obs`) so consumers can attach themselves to the
    producer's lineage; it is None unless observability is enabled.
    """

    publish_time: float
    data: T
    data_time: Optional[float] = None
    sequence: int = 0
    trace: Optional[Any] = None

    @property
    def effective_data_time(self) -> float:
        """The datum's own timestamp, defaulting to the publication time."""
        return self.publish_time if self.data_time is None else self.data_time


class Topic(Generic[T]):
    """A single event stream: one logical writer, many readers."""

    def __init__(self, name: str, history: int = 128) -> None:
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.name = name
        self._history: _RingBuffer[StampedEvent[T]] = _RingBuffer(history)
        self._sequence = 0
        # Publish time of the newest delivered event (monotonicity check).
        self._last_publish_time = -math.inf
        self._queues: List[Deque[StampedEvent[T]]] = []
        self._callbacks: List[Callable[[StampedEvent[T]], None]] = []
        # Fault-injection hook (see repro.resilience.faults).  None in
        # normal operation: put() then pays one attribute load + branch.
        self._injector: Optional[Any] = None
        # Observability hook (see repro.obs): stamps trace contexts at
        # publish and turns reads into lineage links.  Same discipline:
        # None unless a run opted in.
        self._observer: Optional[Any] = None

    def put(self, publish_time: float, data: T, data_time: Optional[float] = None) -> StampedEvent[T]:
        """Publish ``data`` at ``publish_time``; notify all readers.

        When a fault injector is installed the publish may be dropped,
        delayed, duplicated, or corrupted before delivery.  A dropped or
        delayed publish returns an *undelivered* event (not appended to
        history, sequence unconsumed) so callers see a consistent shape.
        """
        if self._injector is not None:
            directive = self._injector.on_publish(self, publish_time, data, data_time)
            if directive is not None:
                kind, payload = directive
                if kind == "drop" or kind == "delay":
                    return StampedEvent(publish_time, data, data_time, self._sequence)
                if kind == "corrupt":
                    data = payload
                elif kind == "duplicate":
                    self.deliver(publish_time, data, data_time)
        return self.deliver(publish_time, data, data_time)

    def deliver(self, publish_time: float, data: T, data_time: Optional[float] = None) -> StampedEvent[T]:
        """Deliver an event to all readers, bypassing fault injection.

        This is the raw delivery path ``put`` uses after injection has had
        its say; the injector's delayed redelivery and the supervisor's
        dead-letter/supervision publishes call it directly so control
        traffic is never itself faulted.
        """
        if publish_time < self._last_publish_time:
            raise ValueError(
                f"topic {self.name!r}: non-monotonic publish time "
                f"{publish_time} < {self._last_publish_time}"
            )
        self._last_publish_time = publish_time
        observer = self._observer
        trace = observer.publish_context(self.name) if observer is not None else None
        event = StampedEvent(publish_time, data, data_time, self._sequence, trace)
        self._sequence += 1
        self._history.append(event)
        for queue in self._queues:
            queue.append(event)
        if observer is not None:
            # Before callbacks: queue depth is read before any cascading
            # reaction the publish triggers.
            observer.on_publish(self, event)
        for callback in self._callbacks:
            callback(event)
        return event

    def get_latest(self) -> Optional[StampedEvent[T]]:
        """Asynchronous read: the most recent event, or None if empty."""
        if not self._history:
            return None
        event = self._history[-1]
        if self._observer is not None:
            self._observer.on_read(self.name, event)
        return event

    def get_latest_before(self, time: float) -> Optional[StampedEvent[T]]:
        """The most recent event published at or before ``time``.

        Publish times are append-ordered (``put`` enforces monotonicity),
        so this is a bisect over the retained ring — O(log n) instead of
        the linear reverse scan it replaces.  Among equal publish times the
        latest-published event wins, matching the old scan.
        """
        history = self._history
        lo, hi = 0, len(history)
        while lo < hi:
            mid = (lo + hi) // 2
            if history[mid].publish_time <= time:
                lo = mid + 1
            else:
                hi = mid
        if not lo:
            return None
        event = history[lo - 1]
        if self._observer is not None:
            self._observer.on_read(self.name, event)
        return event

    def subscribe_queue(self) -> "SyncReader[T]":
        """Synchronous read: a reader that sees every subsequent event."""
        queue: Deque[StampedEvent[T]] = deque()
        self._queues.append(queue)
        return SyncReader(self, queue)

    def subscribe_callback(self, callback: Callable[[StampedEvent[T]], None]) -> None:
        """Invoke ``callback`` on every publish (used by the scheduler)."""
        self._callbacks.append(callback)

    @property
    def count(self) -> int:
        """Total number of events ever published."""
        return self._sequence

    def history(self) -> Iterator[StampedEvent[T]]:
        """Iterate over the retained event history, oldest first."""
        return iter(self._history)


class SyncReader(Generic[T]):
    """A synchronous subscription: drains every event exactly once."""

    def __init__(self, topic: Topic[T], queue: Deque[StampedEvent[T]]) -> None:
        self.topic = topic
        self._queue = queue

    def __len__(self) -> int:
        return len(self._queue)

    def pop(self) -> StampedEvent[T]:
        """Remove and return the oldest unread event."""
        if not self._queue:
            raise IndexError(f"no unread events on {self.topic.name!r}")
        return self._queue.popleft()

    def drain(self) -> List[StampedEvent[T]]:
        """Remove and return all unread events, oldest first."""
        events = list(self._queue)
        self._queue.clear()
        return events

    def peek(self) -> Optional[StampedEvent[T]]:
        """The oldest unread event without removing it, or None."""
        return self._queue[0] if self._queue else None


@dataclass
class Switchboard:
    """Registry of topics; the only channel between plugins."""

    _topics: Dict[str, Topic[Any]] = field(default_factory=dict)

    _injector: Optional[Any] = None
    _observer: Optional[Any] = None

    def topic(self, name: str, history: int = 128) -> Topic[Any]:
        """Get or create the topic called ``name``."""
        if name not in self._topics:
            topic = Topic(name, history=history)
            topic._injector = self._injector
            topic._observer = self._observer
            self._topics[name] = topic
        return self._topics[name]

    def install_injector(self, injector: Optional[Any]) -> None:
        """Attach a fault injector to every current and future topic."""
        self._injector = injector
        for topic in self._topics.values():
            topic._injector = injector

    def install_observer(self, observer: Optional[Any]) -> None:
        """Attach an observability hook to every current and future topic."""
        self._observer = observer
        for topic in self._topics.values():
            topic._observer = observer

    def __contains__(self, name: str) -> bool:
        return name in self._topics

    def topic_names(self) -> List[str]:
        """All registered topic names, sorted."""
        return sorted(self._topics)
