"""The discrete-event engine and resources as they were before the fast path.

An order oracle for ``tests/test_des_parity.py``: the classes below are the
slot-less engine (callbacks run through ``Waitable._process_callbacks``, a
finished process always schedules a completion event) and the resource
that grants through ``Event.succeed``.  The one later change both engines
share is that an interrupt supersedes a resume already in flight.  The production engine must process
the same occurrences in the same ``(time, sequence)`` order, so a program
run on both yields identical logs.  Not collected as a test module.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, Optional

ProcessGenerator = Generator["Waitable", Any, Any]

class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. re-succeeding an event)."""


class Waitable:
    """Base class for things a process may ``yield`` on.

    A waitable is *triggered* once its occurrence time is decided and
    *processed* once all callbacks have run.  Each waitable carries a
    ``value`` delivered to whoever waits on it (thrown if it is an
    exception and ``ok`` is False).
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[list[Callable[["Waitable"], None]]] = []
        self.value: Any = None
        self.ok: bool = True

    @property
    def triggered(self) -> bool:
        """True once the waitable has been scheduled to occur."""
        return self.callbacks is None or self._scheduled

    _scheduled = False

    def _trigger(self, value: Any = None, ok: bool = True) -> None:
        if self._scheduled or self.callbacks is None:
            raise SimulationError(f"{self!r} has already been triggered")
        self.value = value
        self.ok = ok
        self._scheduled = True
        self.engine._push(self)

    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)


class Event(Waitable):
    """A one-shot event another process can succeed (or fail) with a value."""

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

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self.value = value
        self._scheduled = True
        engine._push(self, at=engine.now + delay)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Waitable):
    """Wraps a generator; the process's completion is itself a waitable."""

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Waitable] = None
        # Bootstrap: resume the process at the current time.
        bootstrap = Timeout(engine, 0.0)
        bootstrap.callbacks.append(self._resume)
        self._target = bootstrap

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
        wakeup = Timeout(self.engine, 0.0, value=Interrupt(cause))
        wakeup.ok = False
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
            self._trigger(stop.value, ok=True)
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
        if next_target.callbacks is None:
            # Target already processed: resume immediately with its value.
            wakeup = Timeout(self.engine, 0.0, value=next_target.value)
            wakeup.ok = next_target.ok
            wakeup.callbacks.append(self._resume)
            self._target = wakeup
        else:
            next_target.callbacks.append(self._resume)
            self._target = next_target


class Engine:
    """The discrete-event simulation core: a clock plus an event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Waitable]] = []
        self._sequence = 0

    def _push(self, waitable: Waitable, at: Optional[float] = None) -> None:
        when = self.now if at is None else at
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, self._sequence, waitable))
        self._sequence += 1

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
        when, _seq, waitable = heapq.heappop(self._queue)
        self.now = when
        waitable._process_callbacks()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue empties or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run backwards to {until}")
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                self.now = until
                return
            self.step()
        if until is not None:
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


class Request(Event):
    """A pending (or granted) claim on one slot of a :class:`Resource`.

    Lower ``priority`` values are granted first (0 is the default); ties
    break FIFO.  Priorities model e.g. the compositor's high-priority GPU
    context that lets reprojection jump ahead of application rendering.
    """

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.engine)
        self.resource = resource
        self.priority = priority
        self.granted_at: Optional[float] = None


class Resource:
    """A capacity-limited resource with FIFO granting."""

    def __init__(self, engine: Engine, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._waiting: Deque[Request] = deque()
        self._busy_integral = 0.0
        self._last_change = 0.0

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def _account(self) -> None:
        now = self.engine.now
        self._busy_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; yield the returned request to wait for the grant."""
        req = Request(self, priority=priority)
        if self.in_use < self.capacity:
            self._grant(req)
        else:
            # Insert before the first strictly-lower-priority waiter.
            for i, waiting in enumerate(self._waiting):
                if waiting.priority > req.priority:
                    self._waiting.insert(i, req)
                    break
            else:
                self._waiting.append(req)
        return req

    def _grant(self, req: Request) -> None:
        self._account()
        self._users.add(req)
        req.granted_at = self.engine.now
        req.succeed(req)

    def release(self, req: Request) -> None:
        """Return a granted slot, waking the next waiter if any."""
        if req in self._users:
            self._account()
            self._users.discard(req)
        elif req in self._waiting:
            self._waiting.remove(req)
            return
        else:
            raise SimulationError(f"release of unknown request on {self.name!r}")
        while self._waiting and self.in_use < self.capacity:
            self._grant(self._waiting.popleft())

    def cancel(self, req: Request) -> None:
        """Withdraw a request that has not been granted yet."""
        if req in self._waiting:
            self._waiting.remove(req)
        elif req in self._users:
            self.release(req)

    def busy_time(self) -> float:
        """Integral of in-use slots over time (slot-seconds)."""
        self._account()
        return self._busy_integral

    def utilization(self) -> float:
        """Mean fraction of capacity in use since the simulation began."""
        if self.engine.now == 0.0:
            return 0.0
        return self.busy_time() / (self.capacity * self.engine.now)
