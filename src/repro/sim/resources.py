"""Contended resources for the DES engine (CPU cores, the GPU).

A :class:`Resource` has an integer capacity and a FIFO wait queue.  A process
acquires a slot by yielding the :class:`Request` returned from
:meth:`Resource.request` and must later call :meth:`Resource.release`.

The resource also keeps a busy-time integral so experiments can report
utilization (used for the CPU-cycle attribution of Fig. 5 sanity checks).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Optional

from repro.sim.engine import Engine, Event, SimulationError


class Request(Event):
    """A pending (or granted) claim on one slot of a :class:`Resource`.

    Lower ``priority`` values are granted first (0 is the default); ties
    break FIFO.  Priorities model e.g. the compositor's high-priority GPU
    context that lets reprojection jump ahead of application rendering.
    """

    __slots__ = ("resource", "priority", "granted_at")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        self.engine = resource.engine
        self.callbacks = []
        self.value = None
        self.ok = True
        self._scheduled = False
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
        self._busy_integral += len(self._users) * (now - self._last_change)
        self._last_change = now

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; yield the returned request to wait for the grant."""
        req = Request(self, priority=priority)
        if len(self._users) < self.capacity:
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
        """Account busy time, take a slot and schedule the grant event now.

        The grant is ``req.succeed(req)`` with the accounting and the push
        inlined: it runs once per CPU phase and once per GPU timeslice.
        """
        engine = self.engine
        now = engine.now
        users = self._users
        self._busy_integral += len(users) * (now - self._last_change)
        self._last_change = now
        users.add(req)
        req.granted_at = now
        req.value = req
        req._scheduled = True
        sequence = engine._sequence
        engine._sequence = sequence + 1
        heappush(engine._queue, (now, sequence, req))

    def release(self, req: Request) -> None:
        """Return a granted slot, waking the next waiter if any."""
        users = self._users
        waiting = self._waiting
        if req in users:
            self._account()
            users.discard(req)
        elif req in waiting:
            waiting.remove(req)
            return
        else:
            raise SimulationError(f"release of unknown request on {self.name!r}")
        while waiting and len(users) < self.capacity:
            self._grant(waiting.popleft())

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
