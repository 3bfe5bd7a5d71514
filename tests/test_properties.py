"""Property-based tests (hypothesis) on the core substrate invariants:
DES causality, resource capacity, switchboard coherence, scheduler
accounting, and cost-model positivity; and whole-run properties of the
scheduler and of the VIO plugin's IMU delivery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.switchboard import Topic
from repro.sim.engine import Engine
from repro.sim.resources import Resource


# ---------------------------------------------------------------------------
# DES engine causality
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=25))
def test_engine_fires_timeouts_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired = []

    def waiter(eng, delay):
        yield eng.timeout(delay)
        fired.append(eng.now)

    for delay in delays:
        engine.process(waiter(engine, delay))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert engine.now == max(delays)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.01, 5.0, allow_nan=False), st.floats(0.01, 5.0, allow_nan=False)),
        min_size=1,
        max_size=12,
    )
)
def test_engine_chained_waits_accumulate(pairs):
    """A process that sleeps a then b wakes exactly at a + b."""
    engine = Engine()
    results = []

    def chain(eng, a, b):
        yield eng.timeout(a)
        yield eng.timeout(b)
        results.append((eng.now, a + b))

    for a, b in pairs:
        engine.process(chain(engine, a, b))
    engine.run()
    for now, expected in results:
        assert abs(now - expected) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.lists(st.floats(0.05, 2.0, allow_nan=False), min_size=1, max_size=16))
def test_resource_never_exceeds_capacity(capacity, durations):
    engine = Engine()
    resource = Resource(engine, capacity)
    in_use_samples = []

    def worker(eng, duration):
        request = resource.request()
        yield request
        in_use_samples.append(resource.in_use)
        yield eng.timeout(duration)
        resource.release(request)

    for duration in durations:
        engine.process(worker(engine, duration))
    engine.run()
    assert all(sample <= capacity for sample in in_use_samples)
    assert resource.in_use == 0
    assert resource.queue_length == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=1, max_size=10))
def test_resource_work_conservation(capacity, durations):
    """Total busy slot-seconds equals the sum of hold durations."""
    engine = Engine()
    resource = Resource(engine, capacity)

    def worker(eng, duration):
        request = resource.request()
        yield request
        yield eng.timeout(duration)
        resource.release(request)

    for duration in durations:
        engine.process(worker(engine, duration))
    engine.run()
    assert abs(resource.busy_time() - sum(durations)) < 1e-9


# ---------------------------------------------------------------------------
# Switchboard coherence
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=60))
def test_sync_reader_sees_exactly_the_published_sequence(values):
    topic = Topic("t")
    reader = topic.subscribe_queue()
    for i, value in enumerate(values):
        topic.put(float(i), value)
    drained = [event.data for event in reader.drain()]
    assert drained == values
    assert topic.get_latest().data == values[-1]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=40),
    st.floats(0.0, 100.0, allow_nan=False),
)
def test_get_latest_before_is_supremum(times, query):
    times = sorted(times)
    topic = Topic("t", history=len(times))
    for t in times:
        topic.put(t, t)
    event = topic.get_latest_before(query)
    eligible = [t for t in times if t <= query]
    if not eligible:
        assert event is None
    else:
        assert event.data == max(eligible)


# ---------------------------------------------------------------------------
# Timing model positivity / scaling
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["vio", "camera", "timewarp", "audio_playback", "hologram"]),
    st.floats(0.1, 3.0, allow_nan=False),
    st.integers(0, 10_000),
)
def test_timing_samples_positive_and_finite(component, complexity, seed):
    from repro.hardware.platform import JETSON_HP
    from repro.hardware.timing import TimingModel

    timing = TimingModel(JETSON_HP, seed=seed)
    sample = timing.sample(component, complexity=complexity)
    assert sample.cpu_time >= 0.0 and np.isfinite(sample.cpu_time)
    assert sample.gpu_time >= 0.0 and np.isfinite(sample.gpu_time)
    assert sample.total > 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False))
def test_power_breakdown_positive_and_monotone(cpu_util, gpu_util):
    from repro.hardware.platform import JETSON_LP
    from repro.hardware.power import PowerModel

    model = PowerModel(JETSON_LP)
    breakdown = model.breakdown(cpu_util, gpu_util)
    assert breakdown.total > 0
    higher = model.breakdown(min(cpu_util + 0.1, 1.0), gpu_util)
    assert higher.total >= breakdown.total - 1e-12


# ---------------------------------------------------------------------------
# Quaternion/pose round trips through the full stack
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(*[st.floats(-3, 3, allow_nan=False)] * 3),
    st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 3).filter(
        lambda v: 1e-3 < np.linalg.norm(v) < np.pi - 0.1
    ),
)
def test_pose_relative_compose_roundtrip(position, rotvec):
    from repro.maths.quaternion import quat_exp
    from repro.maths.se3 import Pose

    pose = Pose(np.array(position), quat_exp(np.array(rotvec)))
    reference = Pose(np.array([1.0, -2.0, 0.5]), quat_exp(np.array([0.2, -0.1, 0.4])))
    relative = pose.relative_to(reference)
    recovered = reference.compose(relative)
    assert recovered.translation_error(pose) < 1e-9
    assert recovered.rotation_error(pose) < 1e-9


# ---------------------------------------------------------------------------
# Whole-run scheduler properties
# ---------------------------------------------------------------------------

# A supervised run can stop on a known supervisor defect: a plugin's
# degraded notice is re-delivered on sys/observability at the notice's
# own (earlier) time (perfbench/README.md, "Known defect kept out of the
# workloads"; the strict xfail
# perfbench/tests/test_perfbench.py::test_supervised_jetson_chaos_run_completes
# reproduces it).  A run that stops on it has no whole-run properties to
# check, so the example is rejected; any other exception fails the test.
_SUPERVISOR_DEFECT = "topic 'sys/observability': non-monotonic publish time"


@st.composite
def _whole_runs(draw):
    """(platform, app, fidelity, seed, duration, plan) of a short traced run;
    model fidelity four times in five, and a plan that is None, a canned
    plan's name or a ``random_fault_plan`` seed."""
    from repro.hardware.platform import PLATFORMS
    from repro.resilience import CANNED_PLANS
    from repro.visual.scenes import APPLICATION_ORDER

    fidelity = draw(st.sampled_from(("model", "model", "model", "model", "full")))
    return (
        draw(st.sampled_from(sorted(PLATFORMS))),
        draw(st.sampled_from(APPLICATION_ORDER)),
        fidelity,
        draw(st.integers(0, 10_000)),
        draw(st.sampled_from((0.5, 1.0))) if fidelity == "model" else 0.5,
        draw(st.one_of(st.none(), st.sampled_from(sorted(CANNED_PLANS)), st.integers(0, 10_000))),
    )


def _run_whole(platform, app, fidelity, seed, duration, plan):
    """Build and run one drawn configuration (rejecting the example if the
    run stopped on the known supervisor defect)."""
    from hypothesis import assume

    from repro.core.config import SystemConfig
    from repro.core.runtime import build_runtime
    from repro.hardware.platform import PLATFORMS
    from repro.resilience import CANNED_PLANS, SupervisorConfig, random_fault_plan

    if plan is None:
        fault_plan = None
    elif isinstance(plan, str):
        fault_plan = CANNED_PLANS[plan](seed)
    else:
        fault_plan = random_fault_plan(plan)
    runtime = build_runtime(
        PLATFORMS[platform],
        app,
        SystemConfig(duration_s=duration, fidelity=fidelity, seed=seed),
        fault_plan=fault_plan,
        supervision=SupervisorConfig() if fault_plan is not None else None,
        observability=True,
    )
    try:
        result = runtime.run()
    except ValueError as exc:
        if _SUPERVISOR_DEFECT not in str(exc):
            raise
        assume(False)
    return runtime, result


@settings(max_examples=30, deadline=None)
@given(_whole_runs())
def test_whole_run_invocations_never_overlap(drawn):
    """A plugin runs one invocation at a time: each starts no earlier
    than the previous one (completed or killed) ended."""
    runtime, result = _run_whole(*drawn)
    for plugin in runtime.plugins:
        records = sorted(result.logger.for_plugin(plugin.name), key=lambda r: r.start)
        for earlier, later in zip(records, records[1:]):
            assert later.start >= earlier.end, (plugin.name, earlier, later)


@settings(max_examples=30, deadline=None)
@given(_whole_runs())
def test_whole_run_every_trigger_is_accounted_for(drawn):
    """Each trigger of a plugin that was not quarantined started exactly
    one invocation (one span on its track, skipped or not) or logged one
    drop.  A clock-driven plugin triggers at ``k * period - lead`` within
    the run (``Periodic`` from k = 0 with lead 0, ``OnVsync`` from k = 1);
    an ``OnTopic`` plugin on every delivery of its topic."""
    from repro.core.plugin import OnTopic, OnVsync

    runtime, result = _run_whole(*drawn)
    duration = drawn[4]
    quarantined = set(result.supervision["quarantined"]) if result.supervision else set()
    invocations = {}
    for span in result.observability.tracer.spans:
        if span.kind == "invocation":
            invocations[span.track] = invocations.get(span.track, 0) + 1
    for plugin in runtime.plugins:
        if plugin.name in quarantined:
            continue
        trigger = plugin.trigger
        if isinstance(trigger, OnTopic):
            triggers = runtime.switchboard.topic(trigger.topic).count
        else:
            lead, tick = (trigger.lead, 1) if isinstance(trigger, OnVsync) else (0.0, 0)
            triggers = 0
            while tick * trigger.period - lead <= duration:
                triggers += 1
                tick += 1
        accounted = invocations.get(plugin.name, 0) + result.logger.drop_count(plugin.name)
        assert accounted == triggers, (plugin.name, accounted, triggers)


@settings(max_examples=20, deadline=None)
@given(_whole_runs())
def test_whole_run_records_carry_the_trigger_deadline(drawn):
    """Each record carries its trigger's deadline: the period for
    ``Periodic``, the lead for ``OnVsync``, none for ``OnTopic``."""
    from repro.core.plugin import OnTopic, OnVsync

    runtime, result = _run_whole(*drawn)
    for plugin in runtime.plugins:
        trigger = plugin.trigger
        deadline = None if isinstance(trigger, OnTopic) else trigger.period
        if isinstance(trigger, OnVsync):
            deadline = trigger.lead
        assert {r.deadline for r in result.logger.for_plugin(plugin.name)} <= {deadline}, plugin.name


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="VioPlugin.iteration drops the first IMU sample newer than a frame "
    "(a FOUND line of CHANGES.md); its fix regenerates the benchmark references",
)
def test_whole_run_vio_sees_each_imu_sample_once():
    """Every IMU sample published with a timestamp in (first processed
    frame, last processed frame] reaches the filter's ``process_imu``
    exactly once (desktop Sponza, full fidelity, 2 s, seed 0)."""
    from collections import Counter

    from repro.core.config import SystemConfig
    from repro.core.runtime import build_runtime
    from repro.hardware.platform import DESKTOP
    from repro.perception.vio.msckf import Msckf
    from repro.plugins.perception import VioPlugin

    published, processed, frames = [], [], []

    class RecordingMsckf(Msckf):
        def process_imu(self, sample):
            processed.append(sample.timestamp)
            super().process_imu(sample)

        def process_frame(self, frame):
            frames.append(frame.timestamp)
            return super().process_frame(frame)

    class RecordingVioPlugin(VioPlugin):
        filter_class = RecordingMsckf

    config = SystemConfig(duration_s=2.0, fidelity="full", seed=0)
    runtime = build_runtime(DESKTOP, "sponza", config)
    runtime.plugins = [
        RecordingVioPlugin(config, p.camera, p.trajectory) if isinstance(p, VioPlugin) else p
        for p in runtime.plugins
    ]
    runtime.switchboard.topic("imu").subscribe_callback(
        lambda event: published.append(event.data.timestamp)
    )
    runtime.run()
    assert len(frames) > 10
    window = [t for t in published if frames[0] < t <= frames[-1]]
    counts = Counter(processed)
    missed = [t for t in window if counts[t] != 1]
    assert not missed, f"{len(missed)} of {len(window)} samples not processed exactly once: {missed[:5]}"
