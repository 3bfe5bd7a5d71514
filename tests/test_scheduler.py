"""Unit tests for the runtime scheduler on the DES substrate."""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.plugin import (
    InvocationContext,
    IterationResult,
    OnTopic,
    OnVsync,
    Periodic,
    Plugin,
)
from repro.core.records import RecordLogger
from repro.core.scheduler import Scheduler
from repro.core.switchboard import Switchboard
from repro.hardware.platform import DESKTOP, JETSON_LP, Platform
from repro.hardware.timing import TimingModel
from repro.sim.engine import Engine


class FixedCostTiming(TimingModel):
    """Deterministic timing for scheduler tests."""

    def __init__(self, platform, cpu_time, gpu_time=0.0):
        super().__init__(platform, seed=0)
        self._cpu = cpu_time
        self._gpu = gpu_time

    def sample(self, component, app=None, complexity=1.0):
        from repro.hardware.timing import CostSample

        return CostSample(self._cpu * complexity, self._gpu * complexity)


class CountingPlugin(Plugin):
    name = "counter"
    component = "camera"

    def __init__(self, trigger, publish_to=None):
        super().__init__(trigger)
        self.invocations = []
        self.publish_to = publish_to

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        self.invocations.append(ctx.now)
        result = IterationResult()
        if self.publish_to:
            result.publish(self.publish_to, ctx.index, data_time=ctx.now)
        return result


def _scheduler(platform: Platform = DESKTOP, cpu_time=0.001, gpu_time=0.0):
    engine = Engine()
    switchboard = Switchboard()
    logger = RecordLogger()
    timing = FixedCostTiming(platform, cpu_time, gpu_time)
    scheduler = Scheduler(engine, platform, timing, switchboard, logger, app_name="sponza")
    return engine, switchboard, logger, scheduler


def test_periodic_plugin_runs_at_rate():
    engine, _sb, logger, scheduler = _scheduler(cpu_time=0.001)
    plugin = CountingPlugin(Periodic(0.01))
    scheduler.add_plugin(plugin)
    engine.run(until=1.0)
    assert len(plugin.invocations) == pytest.approx(100, abs=1)
    assert logger.frame_rate("counter", 1.0) == pytest.approx(100, abs=1)


def test_periodic_plugin_drops_when_overrunning():
    # 15 ms work on a 10 ms period: every other tick is dropped.
    engine, _sb, logger, scheduler = _scheduler(cpu_time=0.015)
    plugin = CountingPlugin(Periodic(0.01))
    scheduler.add_plugin(plugin)
    engine.run(until=1.0)
    assert logger.frame_rate("counter", 1.0) == pytest.approx(50, abs=2)
    assert logger.drop_count("counter") > 40
    assert logger.miss_rate("counter") > 0.9


def test_outputs_published_at_completion_time():
    engine, switchboard, _lg, scheduler = _scheduler(cpu_time=0.004)
    plugin = CountingPlugin(Periodic(0.01), publish_to="out")
    scheduler.add_plugin(plugin)
    engine.run(until=0.05)
    events = list(switchboard.topic("out").history())
    assert events[0].publish_time == pytest.approx(0.004)
    assert events[0].data_time == pytest.approx(0.0)


def test_on_topic_plugin_triggered_by_publish():
    engine, switchboard, _lg, scheduler = _scheduler(cpu_time=0.001)
    producer = CountingPlugin(Periodic(0.02), publish_to="stream")
    consumer = CountingPlugin(OnTopic("stream"))
    consumer.name = "consumer"
    scheduler.add_plugin(producer)
    scheduler.add_plugin(consumer)
    engine.run(until=0.5)
    assert len(consumer.invocations) == pytest.approx(len(producer.invocations), abs=1)


def test_on_topic_busy_consumer_drops():
    engine, switchboard, logger, scheduler = _scheduler(cpu_time=0.05)

    class DoublePublisher(CountingPlugin):
        """Publishes two events per invocation: the second always finds
        the consumer busy, so it must be dropped."""

        def iteration(self, ctx):
            result = super().iteration(ctx)
            result.publish("stream", -ctx.index, data_time=ctx.now)
            return result

    producer = DoublePublisher(Periodic(0.2), publish_to="stream")
    producer.name = "producer"
    consumer = CountingPlugin(OnTopic("stream"))
    consumer.name = "consumer"
    scheduler.add_plugin(producer)
    scheduler.add_plugin(consumer)
    engine.run(until=1.0)
    assert logger.drop_count("consumer") > 0
    assert len(consumer.invocations) > 0


def test_vsync_plugin_aligns_to_vsync():
    engine, switchboard, logger, scheduler = _scheduler(cpu_time=0.002)
    period = 1 / 120
    plugin = CountingPlugin(OnVsync(period, lead=0.004), publish_to="display")
    scheduler.add_plugin(plugin)
    engine.run(until=0.5)
    # Starts lead seconds before each vsync.
    first_start = plugin.invocations[0]
    assert first_start == pytest.approx(period - 0.004)
    # Outputs are released exactly on vsync boundaries.
    for event in switchboard.topic("display").history():
        remainder = event.publish_time % period
        assert min(remainder, period - remainder) < 1e-9


def test_vsync_plugin_slips_when_too_slow():
    engine, _sb, logger, scheduler = _scheduler(cpu_time=0.012)  # > 8.33 ms
    period = 1 / 120
    plugin = CountingPlugin(OnVsync(period, lead=0.007))
    scheduler.add_plugin(plugin)
    engine.run(until=1.0)
    # Runs at roughly half rate and misses every deadline.
    assert logger.frame_rate("counter", 1.0) < 70
    assert logger.miss_rate("counter") == 1.0


def test_skipped_iteration_charges_nothing():
    engine, _sb, logger, scheduler = _scheduler(cpu_time=0.001)

    class SkippingPlugin(Plugin):
        name = "skipper"
        component = "camera"

        def iteration(self, ctx):
            return IterationResult(skipped=True)

    scheduler.add_plugin(SkippingPlugin(Periodic(0.01)))
    engine.run(until=0.5)
    assert logger.for_plugin("skipper") == []
    assert scheduler.cpu.busy_time() == 0.0


def test_cpu_contention_serializes_on_one_core():
    single_core = Platform(
        key="desktop", name="d", cpu_description="", gpu_description="",
        cpu_cores=1, cpu_freq_ghz=3.0, gpu_concurrency=1,
        gpu_priority_contexts=True, cpu_scale=1.0, gpu_scale=1.0, approximates="",
    )
    engine, _sb, logger, scheduler = _scheduler(single_core, cpu_time=0.006)
    a = CountingPlugin(Periodic(0.01))
    a.name = "a"
    b = CountingPlugin(Periodic(0.01))
    b.name = "b"
    scheduler.add_plugin(a)
    scheduler.add_plugin(b)
    engine.run(until=1.0)
    # 2 x 6 ms of work per 10 ms period cannot fit one core: wall times
    # inflate beyond the pure cpu time for the queued plugin.
    mean_wall = max(logger.mean_execution_time("a"), logger.mean_execution_time("b"))
    assert mean_wall > 0.008


def test_gpu_quantum_on_jetson_scales_with_cost():
    engine, _sb, logger, scheduler = _scheduler(JETSON_LP, cpu_time=0.001, gpu_time=0.05)
    plugin = CountingPlugin(Periodic(0.1))
    scheduler.add_plugin(plugin)
    engine.run(until=0.5)
    assert scheduler.gpu.busy_time() > 0.1


def test_on_complete_hook_invoked():
    engine, _sb, _lg, scheduler = _scheduler(cpu_time=0.002)
    completions = []

    class Hooked(CountingPlugin):
        def on_complete(self, record, swap_time):
            completions.append((record.start, record.end, swap_time))

    plugin = Hooked(Periodic(0.01))
    scheduler.add_plugin(plugin)
    engine.run(until=0.1)
    assert len(completions) >= 9
    start, end, swap = completions[0]
    assert end - start == pytest.approx(0.002)
    assert swap == end  # non-vsync plugins release immediately


def test_unknown_trigger_type_rejected():
    engine, _sb, _lg, scheduler = _scheduler()
    plugin = CountingPlugin(Periodic(0.01))
    plugin.trigger = "not a trigger"
    with pytest.raises(TypeError):
        scheduler.add_plugin(plugin)


def test_utilization_reporting():
    engine, _sb, _lg, scheduler = _scheduler(cpu_time=0.005)
    scheduler.add_plugin(CountingPlugin(Periodic(0.01)))
    engine.run(until=1.0)
    utilization = scheduler.utilization()
    assert 0.0 < utilization["cpu"] < 1.0
    assert utilization["gpu"] == 0.0
