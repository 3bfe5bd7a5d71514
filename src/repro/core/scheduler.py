"""The runtime scheduler: plugins on a simulated platform (§II-B).

Each plugin becomes a driver process on the DES engine:

- :class:`~repro.core.plugin.Periodic` plugins tick at their period; a tick
  that finds the previous invocation still running is *dropped* (the
  frame-skip behaviour §IV-A1 observes for the application and
  reprojection on the Jetsons).
- :class:`~repro.core.plugin.OnTopic` plugins run when their producer
  publishes (the synchronous dependences of Fig. 2); publishes that arrive
  while busy are dropped (the consumer will pick up the latest data on its
  next run, which is how VIO falls behind the camera).
- :class:`~repro.core.plugin.OnVsync` plugins start ``lead`` seconds before
  each vsync so they read the freshest pose (footnote 5); their outputs are
  released at the vsync at/after completion, and the wait is reported as
  the swap time for MTP.

An invocation occupies one CPU core for its sampled ``cpu_time`` and then
the GPU for ``gpu_time``; contention for those resources -- not added
noise -- produces the execution-time variability of Fig. 4.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.plugin import InvocationContext, OnTopic, OnVsync, Periodic, Plugin
from repro.core.records import InvocationRecord, RecordLogger
from repro.core.switchboard import Switchboard
from repro.hardware.platform import Platform
from repro.hardware.timing import CostSample, TimingModel
from repro.sim.engine import Engine, Interrupt
from repro.sim.resources import Resource

# The cost a watchdog-killed invocation is logged with: its CPU/GPU slots
# were reclaimed, so it consumed nothing accountable.
_NO_COST = CostSample(0.0, 0.0)
# Stands in for the span activation around an untraced invocation's publishes.
_UNTRACED = nullcontext()


@dataclass
class CompletionInfo:
    """Timing facts handed to ``plugin.on_complete`` after an invocation."""

    scheduled_at: float
    start: float
    end: float
    cpu_time: float
    gpu_time: float
    swap_time: float   # when outputs became visible (vsync for OnVsync)


class Scheduler:
    """Drives all plugins on the simulated platform."""

    def __init__(
        self,
        engine: Engine,
        platform: Platform,
        timing: TimingModel,
        switchboard: Switchboard,
        logger: RecordLogger,
        app_name: Optional[str] = None,
        dilation: Optional[Dict[str, float]] = None,
        injector=None,
        supervisor=None,
        observability=None,
    ) -> None:
        self.engine = engine
        self.platform = platform
        self.timing = timing
        self.switchboard = switchboard
        self.logger = logger
        self.app_name = app_name
        # Resilience hooks (repro.resilience): both default to None, in
        # which case every hook below is one attribute load and a branch.
        self.injector = injector
        self.supervisor = supervisor
        # Observability (repro.obs): wraps every invocation in a causal
        # span.  None-check discipline.
        self.obs = observability
        self.cpu = Resource(engine, platform.cpu_cores, name="cpu")
        self.gpu = Resource(engine, platform.gpu_concurrency, name="gpu")
        # GPU preemption granularity (draw-call/kernel boundary timeslice).
        self.gpu_quantum = 2.0e-3
        # Per-component clock dilation (§V.G, evaluation-tools idea 3):
        # a component whose detailed model runs in an external simulator
        # can be slowed by a factor so the rest of the system experiences
        # its simulated-speed behaviour (hybrid real+simulated systems).
        self.dilation: Dict[str, float] = dict(dilation or {})
        for component, factor in self.dilation.items():
            if factor <= 0:
                raise ValueError(f"dilation for {component!r} must be positive")
        self._busy: Dict[str, bool] = {}
        self._indices: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def add_plugin(self, plugin: Plugin) -> None:
        """Register a plugin's driver according to its trigger."""
        self._busy[plugin.name] = False
        self._indices[plugin.name] = 0
        trigger = plugin.trigger
        if isinstance(trigger, Periodic):
            self.engine.process(self._periodic_driver(plugin, trigger), name=plugin.name)
        elif isinstance(trigger, OnVsync):
            self.engine.process(self._vsync_driver(plugin, trigger), name=plugin.name)
        elif isinstance(trigger, OnTopic):
            self._install_topic_driver(plugin, trigger)
        else:
            raise TypeError(f"unknown trigger type: {trigger!r}")

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------

    def _periodic_driver(self, plugin: Plugin, trigger: Periodic):
        period = trigger.period
        tick = 0
        while True:
            scheduled = tick * period
            if scheduled > self.engine.now:
                yield self.engine.timeout(scheduled - self.engine.now)
            if self.supervisor is not None and self.supervisor.is_quarantined(plugin.name):
                # Quarantine is terminal: stop driving (and stop logging
                # drops -- a dead plugin must not inflate drop counts).
                return
            if self._busy[plugin.name]:
                self.logger.log_drop(plugin.name, scheduled)
            else:
                self._busy[plugin.name] = True
                self._spawn(
                    plugin, scheduled, deadline=period, name=f"{plugin.name}#{tick}"
                )
            tick += 1

    def _vsync_driver(self, plugin: Plugin, trigger: OnVsync):
        period = trigger.period
        tick = 1
        while True:
            vsync = tick * period
            start_at = vsync - trigger.lead
            if start_at > self.engine.now:
                yield self.engine.timeout(start_at - self.engine.now)
            if self.supervisor is not None and self.supervisor.is_quarantined(plugin.name):
                return
            if self._busy[plugin.name]:
                self.logger.log_drop(plugin.name, start_at)
            else:
                # Deadline = the lead: finishing after it means the vsync
                # was missed and the frame slips to the next one.
                self._busy[plugin.name] = True
                self._spawn(
                    plugin,
                    start_at,
                    deadline=trigger.lead,
                    vsync_period=period,
                    name=f"{plugin.name}#{tick}",
                )
            tick += 1

    def _install_topic_driver(self, plugin: Plugin, trigger: OnTopic) -> None:
        topic = self.switchboard.topic(trigger.topic)

        def on_publish(_event) -> None:
            if self.supervisor is not None and self.supervisor.is_quarantined(plugin.name):
                return
            if self._busy[plugin.name]:
                self.logger.log_drop(plugin.name, self.engine.now)
            else:
                self._busy[plugin.name] = True
                self._spawn(
                    plugin,
                    self.engine.now,
                    deadline=None,
                    trigger_event=_event,
                    name=f"{plugin.name}@{self.engine.now:.4f}",
                )

        topic.subscribe_callback(on_publish)

    def _spawn(
        self,
        plugin: Plugin,
        scheduled_at: float,
        deadline: Optional[float],
        vsync_period: Optional[float] = None,
        trigger_event=None,
        name: str = "",
    ) -> None:
        """Launch one invocation process, arming the watchdog if supervised."""
        process = self.engine.process(
            self._invocation(plugin, scheduled_at, deadline, vsync_period, trigger_event), name
        )
        supervisor = self.supervisor
        if supervisor is None:
            return
        timeout = supervisor.watchdog_timeout(deadline)

        def watchdog_check() -> None:
            if process.is_alive:
                supervisor.record_failure(
                    plugin.name,
                    self.engine.now,
                    TimeoutError(f"hung > {timeout:.4f}s"),
                    kind="hang",
                )
                process.interrupt("watchdog")

        self.engine.call_later(timeout, watchdog_check)

    # ------------------------------------------------------------------
    # One invocation
    # ------------------------------------------------------------------

    def _run_iteration(
        self, plugin: Plugin, index: int, trigger_event, skew: float, attempt: int, span=None
    ):
        """One attempt at ``plugin.iteration`` under supervision.

        Returns the :class:`IterationResult`; None when the invocation is
        abandoned (quarantined, or retries exhausted); or, for a crash the
        supervisor retries, the ``(backoff delay, error)`` pair, which
        :meth:`_invocation` waits out before resetting the plugin.
        Unsupervised, this is exactly one ``iteration`` call and exceptions
        propagate.

        ``span`` (observability only) is activated around the synchronous
        ``iteration`` call so async topic reads inside it become lineage
        links; it is never held across a yield.
        """
        now = self.engine.now
        ctx = InvocationContext(now + skew, index, trigger_event)
        try:
            if self.injector is not None:
                self.injector.check_crash(plugin.name, index, now, attempt)
            if span is None:
                result = plugin.iteration(ctx)
            else:
                self.obs.note_attempt(span, ctx.now, attempt)
                with self.obs.tracer.activate(span):
                    result = plugin.iteration(ctx)
        except Interrupt:
            raise
        except Exception as exc:
            if span is not None:
                self.obs.on_attempt_error(span, now, exc)
            supervisor = self.supervisor
            if supervisor is None:
                self._busy[plugin.name] = False
                raise
            action = supervisor.record_failure(plugin.name, now, exc)
            if action == "quarantine" or attempt >= supervisor.config.max_retries_per_invocation:
                if trigger_event is not None:
                    # Poison event: route it to the dead-letter topic
                    # instead of killing (or crash-looping) the reader.
                    supervisor.dead_letter(plugin.name, now, trigger_event, exc)
                return None
            delay = supervisor.backoff_delay(plugin.name)
            supervisor.record_retry(plugin.name, now, delay)
            return delay, exc
        if self.supervisor is not None:
            self.supervisor.on_success(plugin.name)
        return result

    def _invocation(
        self,
        plugin: Plugin,
        scheduled_at: float,
        deadline: Optional[float],
        vsync_period: Optional[float] = None,
        trigger_event=None,
    ):
        # The spawner already marked the plugin busy (it must happen
        # before any other same-timestamp trigger fires).
        engine = self.engine
        name = plugin.name
        component = plugin.component
        injector = self.injector
        obs = self.obs
        index = self._indices[name]
        self._indices[name] = index + 1
        start = engine.now
        span = (
            obs.begin_invocation(plugin, start, trigger_event, index)
            if obs is not None
            else None
        )
        # Resource slots currently held, so a watchdog kill can reclaim
        # them (a hung invocation must not leak a CPU core or the GPU).
        held: list = []
        try:
            skew = injector.clock_skew(component) if injector is not None else 0.0
            attempt = 0
            while True:
                result = self._run_iteration(plugin, index, trigger_event, skew, attempt, span)
                if not isinstance(result, tuple):
                    break
                delay, error = result
                if delay > 0:
                    yield engine.timeout(delay)
                plugin.reset(error)
                attempt += 1
            if result is None or result.skipped:
                if span is not None:
                    obs.end_invocation(span, end=engine.now, skipped=True)
                self._busy[name] = False
                return

            cost = self.timing.sample(
                component,
                app=self.app_name if component == "application" else None,
                complexity=max(result.complexity, 1e-3),
            )
            dilation = self.dilation.get(component, 1.0)
            if dilation != 1.0:
                cost = CostSample(cost.cpu_time * dilation, cost.gpu_time * dilation)

            # Injected stall: the plugin wedges for N deadline-ticks while
            # holding no resource (a blocked syscall / driver hiccup).
            # Long stalls trip the watchdog.
            if injector is not None:
                stall = injector.stall_time(name, index, engine.now, deadline)
                if stall > 0:
                    yield engine.timeout(stall)

            # CPU phase: occupy one core.
            cpu = self.cpu
            request = cpu.request()
            held.append((cpu, request))
            yield request
            yield engine.timeout(cost.cpu_time)
            cpu.release(request)
            held.pop()

            # GPU phase (if any): occupy the GPU in timeslice quanta so a
            # high-priority client (the compositor's reprojection context) can
            # jump in at quantum boundaries instead of waiting out a whole
            # application frame.
            if cost.gpu_time > 0:
                if self.platform.gpu_priority_contexts:
                    # Discrete GPU: fine-grained timeslicing + priority contexts.
                    priority = getattr(plugin, "gpu_priority", 0)
                    quantum = self.gpu_quantum
                else:
                    # Integrated GPU: clients yield only at draw-call boundaries,
                    # and draws scale with scene complexity -- so a heavy app
                    # blocks the compositor for longer stretches (the Jetsons'
                    # app-dependent MTP degradation, Table IV).
                    priority = 0
                    quantum = max(0.5e-3, cost.gpu_time / 10.0)
                gpu = self.gpu
                remaining = cost.gpu_time
                while remaining > 1e-12:
                    slice_time = min(remaining, quantum)
                    gpu_request = gpu.request(priority=priority)
                    held.append((gpu, gpu_request))
                    yield gpu_request
                    yield engine.timeout(slice_time)
                    gpu.release(gpu_request)
                    held.pop()
                    remaining -= slice_time

            # Resource-free delay: an offloaded component's remote compute and
            # network round trip (no local CPU/GPU is held).
            if result.extra_delay > 0:
                yield engine.timeout(result.extra_delay)

            end = engine.now
            # Output release: vsync-aligned plugins hold results to the vsync.
            swap_time = end
            if vsync_period is not None:
                swap_time = math.ceil(end / vsync_period - 1e-9) * vsync_period
                if swap_time > end:
                    yield engine.timeout(swap_time - end)
        except Interrupt:
            # Watchdog kill: reclaim any held slots and log a killed record
            # with no cost (the slots were reclaimed).
            for resource, pending in held:
                resource.cancel(pending)
            end = engine.now
            if span is not None:
                obs.end_invocation(span, end=end, killed=True)
            cost = _NO_COST
            killed = True
            missed = deadline is not None
        else:
            # Activate the span (if traced) around the synchronous publishes
            # so outputs are stamped with this invocation's trace context.
            now = engine.now
            topic = self.switchboard.topic
            with obs.tracer.activate(span) if span is not None else _UNTRACED:
                for output in result.outputs:
                    topic(output.topic).put(now, output.data, data_time=output.data_time)
            killed = False
            missed = deadline is not None and (end - scheduled_at) > deadline
            if span is not None:
                obs.end_invocation(
                    span,
                    end=end,
                    cpu_time=cost.cpu_time,
                    gpu_time=cost.gpu_time,
                    swap_time=swap_time if vsync_period is not None else None,
                    missed_deadline=missed,
                )
        # Fields in declaration order: binding thirteen keywords would cost
        # more than building the tuple.
        self.logger.log(
            InvocationRecord(
                name, component, plugin.pipeline, index,
                scheduled_at, start, end, cost.cpu_time, cost.gpu_time,
                deadline, missed, False, killed,
            )
        )
        on_complete: Optional[Callable[[CompletionInfo], None]] = getattr(
            plugin, "on_complete", None
        )
        if on_complete is not None and not killed:
            on_complete(
                CompletionInfo(
                    scheduled_at=scheduled_at,
                    start=start,
                    end=end,
                    cpu_time=cost.cpu_time,
                    gpu_time=cost.gpu_time,
                    swap_time=swap_time,
                )
            )
        self._busy[name] = False

    # ------------------------------------------------------------------

    def utilization(self) -> Dict[str, float]:
        """Mean CPU and GPU utilization so far."""
        return {"cpu": self.cpu.utilization(), "gpu": self.gpu.utilization()}
