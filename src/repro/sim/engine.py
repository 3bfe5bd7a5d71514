"""A minimal discrete-event simulation (DES) engine.

Processes are Python generators that ``yield`` *waitables*:

- :class:`Timeout` -- resume after a fixed simulated delay.
- :class:`Event` -- resume when some other process succeeds the event.
- :class:`Process` -- resume when another process finishes.

The engine maintains a priority queue of pending occurrences keyed by
``(time, sequence)`` so that simultaneous events fire in the deterministic
order in which they were scheduled.  This is the same execution model as
SimPy's core, rebuilt from scratch so the repository is self-contained.

Every waitable has ``__slots__`` and the hot constructors push their
``(time, sequence, self)`` entry themselves: the runtime creates a few of
them per plugin invocation, thousands per simulated second.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

ProcessGenerator = Generator["Waitable", Any, Any]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. re-succeeding an event)."""


class Waitable:
    """Base class for things a process may ``yield`` on.

    A waitable is *triggered* once its occurrence time is decided and
    *processed* once all callbacks have run (``callbacks`` is then None).
    Each waitable carries a ``value`` delivered to whoever waits on it
    (thrown if it is an exception and ``ok`` is False).
    """

    __slots__ = ("engine", "callbacks", "value", "ok", "_scheduled")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[list[Callable[["Waitable"], None]]] = []
        self.value: Any = None
        self.ok: bool = True
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the waitable has been scheduled to occur."""
        return self.callbacks is None or self._scheduled

    def _trigger(self, value: Any = None, ok: bool = True) -> None:
        if self._scheduled or self.callbacks is None:
            raise SimulationError(f"{self!r} has already been triggered")
        self.value = value
        self.ok = ok
        self._scheduled = True
        self.engine._push(self)


class Event(Waitable):
    """A one-shot event another process can succeed (or fail) with a value."""

    __slots__ = ()

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, resuming all waiters with ``value``."""
        self._trigger(value, ok=True)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event so that waiters have ``exception`` raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("Event.fail() requires an exception instance")
        self._trigger(exception, ok=False)
        return self


class Timeout(Waitable):
    """Occurs a fixed ``delay`` after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        # One comparison rejects negative delays and NaN alike.
        if not delay >= 0:
            raise ValueError(f"timeout delay must be a non-negative number, got {delay}")
        self.engine = engine
        self.callbacks = []
        self.value = value
        self.ok = True
        self._scheduled = True
        self.delay = delay
        sequence = engine._sequence
        engine._sequence = sequence + 1
        heappush(engine._queue, (engine.now + delay, sequence, self))


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Waitable):
    """Wraps a generator; the process's completion is itself a waitable.

    A process that finishes while something waits on it schedules its
    completion event at the current time.  One that finishes with no
    waiter is processed on the spot instead: nothing could observe the
    event, and since sequence numbers only break ties between equal
    times, skipping its push leaves every other event's order unchanged.
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        self.engine = engine
        self.callbacks = []
        self.value = None
        self.ok = True
        self._scheduled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the process at the current time.
        self._wake(None, True)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self.callbacks is not None and not self._scheduled

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt supersedes the process's resume from the waitable it
        waits on, even when that waitable's callbacks are already running.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._wake(Interrupt(cause), False)

    def _wake(self, value: Any, ok: bool) -> None:
        """Resume the process at the current time with ``value``."""
        wakeup = Timeout(self.engine, 0.0, value)
        wakeup.ok = ok
        wakeup.callbacks.append(self._resume)
        self._target = wakeup

    def _resume(self, trigger: Waitable) -> None:
        if trigger is not self._target:
            # An interrupt issued from an earlier callback of ``trigger``
            # superseded this resume: the process now waits on its wakeup.
            return
        self._target = None
        try:
            if trigger.ok:
                next_target = self.generator.send(trigger.value)
            else:
                next_target = self.generator.throw(trigger.value)
        except StopIteration as stop:
            if self.callbacks:
                self._trigger(stop.value, ok=True)
            else:
                self.value = stop.value
                self.callbacks = None
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            if not self.callbacks:
                raise
            self._trigger(exc, ok=False)
            return
        if not isinstance(next_target, Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded a non-waitable: {next_target!r}"
            )
        callbacks = next_target.callbacks
        if callbacks is None:
            # Target already processed: resume immediately with its value.
            self._wake(next_target.value, next_target.ok)
        else:
            callbacks.append(self._resume)
            self._target = next_target


class Engine:
    """The discrete-event simulation core: a clock plus an event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Waitable]] = []
        self._sequence = 0

    def _push(self, waitable: Waitable) -> None:
        """Schedule ``waitable`` to occur at the current time."""
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (self.now, sequence, waitable))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a timeout occurring ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name)

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timeout:
        """Invoke ``fn`` after ``delay`` simulated seconds (no process needed).

        Used by the watchdog (arming a hang check against a running
        invocation) and by the fault injector (redelivering a delayed
        switchboard event) -- cases where spinning up a full generator
        process per callback would be wasteful.
        """
        timeout = Timeout(self, delay)
        timeout.callbacks.append(lambda _trigger: fn())
        return timeout

    def step(self) -> None:
        """Process the single next occurrence in the queue."""
        when, _sequence, waitable = heappop(self._queue)
        self.now = when
        callbacks = waitable.callbacks
        waitable.callbacks = None
        for callback in callbacks:
            callback(waitable)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run backwards to {until}")
        queue = self._queue
        step = self.step
        if until is None:
            while queue:
                step()
            return
        while queue and queue[0][0] <= until:
            step()
        self.now = until

    def all_of(self, waitables: Iterable[Waitable]) -> Event:
        """An event that succeeds once every input waitable has occurred."""
        pending = [w for w in waitables if w.callbacks is not None]
        done = self.event()
        if not pending:
            done.succeed([])
            return done
        remaining = {"count": len(pending)}

        def on_occur(_w: Waitable) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                done.succeed(None)

        for waitable in pending:
            waitable.callbacks.append(on_occur)
        return done
