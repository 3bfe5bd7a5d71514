"""Fault-injection & supervision: fast invariants and regression edges.

Property-style coverage: seeded random fault plans (20 seeds) over short
model-fidelity runs, asserting the switchboard invariants the runtime
guarantees even under chaos -- per-reader timestamp monotonicity,
ring-buffer eviction correctness under reader lag, exactly-once delivery
to synchronous readers, and no duplicate publication after a supervised
retry.  Plus targeted regression tests for the fault-path edges of
``Topic.get_latest_before`` and the scheduler's deadline accounting.
"""

import math

import pytest

from repro.core.config import SystemConfig
from repro.core.runtime import build_runtime
from repro.core.switchboard import Switchboard, Topic
from repro.hardware.platform import DESKTOP
from repro.resilience import (
    CANNED_PLANS,
    Corrupted,
    FaultPlan,
    InjectedFault,
    RuntimeSupervisor,
    SupervisorConfig,
    random_fault_plan,
)

SEEDS = range(20)


def _chaos_run(seed, duration=1.2, probes=("imu", "fast_pose", "camera")):
    """One short model-fidelity run under a random fault plan, with
    per-topic probes recording everything each reader saw."""
    plan = random_fault_plan(seed)
    config = SystemConfig(duration_s=duration, fidelity="model", seed=seed)
    runtime = build_runtime(
        DESKTOP, "platformer", config, fault_plan=plan, supervision=SupervisorConfig()
    )
    seen = {name: [] for name in probes}
    readers = {}
    for name in probes:
        topic = runtime.switchboard.topic(name)
        topic.subscribe_callback(lambda e, log=seen[name]: log.append(e))
        readers[name] = topic.subscribe_queue()
    result = runtime.run()
    return plan, runtime, result, seen, readers


# ---------------------------------------------------------------------------
# Property: switchboard invariants under seeded random fault plans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_preserves_switchboard_invariants(seed):
    plan, runtime, result, seen, readers = _chaos_run(seed)
    for name, events in seen.items():
        times = [e.publish_time for e in events]
        # Per-reader timestamp monotonicity (duplicates may tie, never
        # go backwards -- delayed events are re-stamped at delivery).
        assert times == sorted(times), f"{name} went backwards under plan {plan!r}"
        sequences = [e.sequence for e in events]
        # Exactly-once delivery: delivered sequence numbers are unique
        # and strictly increasing (drops consume no sequence).
        assert sequences == sorted(set(sequences)), f"{name} duplicated a sequence"
        # The synchronous reader saw the identical event stream, in
        # order, regardless of how far it lagged behind the ring.
        drained = readers[name].drain()
        assert [e.sequence for e in drained] == sequences, f"{name} sync reader diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_completes_without_uncaught_exceptions(seed):
    # .run() returning at all is the assertion: any exception that
    # escapes a supervised plugin would propagate out of the engine.
    plan, runtime, result, _seen, _readers = _chaos_run(seed)
    assert result.duration == pytest.approx(1.2)
    # Whatever was injected must be on the record.
    assert len(result.fault_log) == len(plan.log)


# ---------------------------------------------------------------------------
# Determinism: same seed -> identical event-level injection log
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CANNED_PLANS))
def test_canned_plans_are_deterministic(name):
    logs = []
    for _ in range(2):
        plan = CANNED_PLANS[name](seed=3)
        config = SystemConfig(duration_s=2.0, fidelity="model", seed=0)
        build_runtime(
            DESKTOP, "platformer", config, fault_plan=plan, supervision=SupervisorConfig()
        ).run()
        logs.append(list(plan.log))
    assert logs[0], f"plan {name} injected nothing in 2 s"
    assert logs[0] == logs[1]


def test_same_plan_object_reusable_across_runs():
    # begin_run() reseeds the rule RNG streams, so one plan object run
    # twice produces the same log (not a continuation of the first run).
    plan = FaultPlan(seed=9).drop("imu", rate=0.1).crash("vio", rate=0.5)
    config = SystemConfig(duration_s=1.0, fidelity="model", seed=0)
    build_runtime(DESKTOP, "platformer", config, fault_plan=plan,
                  supervision=SupervisorConfig()).run()
    first = list(plan.log)
    build_runtime(DESKTOP, "platformer", config, fault_plan=plan,
                  supervision=SupervisorConfig()).run()
    assert list(plan.log) == first


# ---------------------------------------------------------------------------
# No duplicate delivery after a supervised retry
# ---------------------------------------------------------------------------


def test_retry_publishes_outputs_exactly_once():
    # camera invocation 3 crashes on its first attempt only; the retry
    # succeeds and its outputs must appear exactly once.
    plan = FaultPlan(seed=0).crash_at("camera", index=3)
    config = SystemConfig(duration_s=1.0, fidelity="model", seed=0)
    runtime = build_runtime(
        DESKTOP, "platformer", config, fault_plan=plan, supervision=SupervisorConfig()
    )
    frames = []
    runtime.switchboard.topic("camera").subscribe_callback(frames.append)
    result = runtime.run()
    sup = runtime.supervisor
    assert len(sup.events_of_kind("crash")) == 1
    assert len(sup.events_of_kind("retry")) == 1
    assert sup.plugin_health("camera").state == "healthy"
    # One camera record per invocation index -- the retried index 3 included.
    records = result.logger.for_plugin("camera")
    indices = [r.index for r in records]
    assert len(indices) == len(set(indices))
    assert 3 in indices
    # Delivered frame sequences are unique: no double publish from the retry.
    sequences = [e.sequence for e in frames]
    assert len(sequences) == len(set(sequences))


def test_crash_without_supervision_propagates():
    plan = FaultPlan(seed=0).crash("camera", rate=1.0)
    config = SystemConfig(duration_s=0.5, fidelity="model", seed=0)
    runtime = build_runtime(DESKTOP, "platformer", config)
    runtime.fault_plan = plan
    plan.begin_run(runtime.engine)
    runtime.scheduler.injector = plan  # injector without a supervisor
    with pytest.raises(InjectedFault):
        runtime.run()


# ---------------------------------------------------------------------------
# Supervisor state machine
# ---------------------------------------------------------------------------


def test_supervisor_quarantines_after_consecutive_failures():
    sup = RuntimeSupervisor(SupervisorConfig(max_consecutive_failures=3))
    boom = RuntimeError("boom")
    assert sup.record_failure("vio", 0.1, boom) == "retry"
    assert sup.record_failure("vio", 0.2, boom) == "retry"
    assert sup.record_failure("vio", 0.3, boom) == "quarantine"
    assert sup.is_quarantined("vio")
    assert sup.plugin_health("vio").state == "quarantined"
    assert sup.quarantined_plugins() == ["vio"]


def test_supervisor_success_resets_consecutive_count():
    sup = RuntimeSupervisor(SupervisorConfig(max_consecutive_failures=3))
    boom = RuntimeError("boom")
    for _ in range(5):
        assert sup.record_failure("vio", 0.0, boom) == "retry"
        sup.on_success("vio")
    assert not sup.is_quarantined("vio")
    assert sup.plugin_health("vio").crashes == 5


def test_supervisor_backoff_is_exponential_and_capped():
    cfg = SupervisorConfig(backoff_initial=0.01, backoff_factor=2.0, backoff_max=0.05)
    sup = RuntimeSupervisor(cfg)
    boom = RuntimeError("boom")
    delays = []
    for _ in range(5):
        sup.record_failure("app", 0.0, boom)
        delays.append(sup.backoff_delay("app"))
    assert delays[:3] == pytest.approx([0.01, 0.02, 0.04])
    assert delays[3] == delays[4] == pytest.approx(0.05)


def test_supervisor_config_validation():
    invalid = [
        {"max_consecutive_failures": 0},
        {"watchdog_factor": 0.5},
        {"backoff_initial": 0.1, "backoff_max": 0.01},
        # Each below used to be accepted and failed only at run time (a
        # zero watchdog killed every VIO invocation, a NaN one raised from
        # the engine mid-run) or never (an infinite watchdog never fires).
        {"watchdog_default": 0.0},
        {"watchdog_default": -1.0},
        {"watchdog_default": math.nan},
        {"watchdog_default": math.inf},
        {"watchdog_factor": math.nan},
        {"watchdog_factor": math.inf},
        {"backoff_initial": math.nan},
        {"backoff_max": math.nan},
        {"backoff_max": math.inf},
        {"backoff_initial": math.inf, "backoff_max": math.inf},
        {"backoff_factor": 0.5},
        {"backoff_factor": math.nan},
        {"backoff_factor": math.inf},
    ]
    for fields in invalid:
        with pytest.raises(ValueError):
            SupervisorConfig(**fields)


def test_supervision_takes_a_config_only():
    with pytest.raises(TypeError):
        build_runtime(DESKTOP, "platformer", supervision=RuntimeSupervisor())


# ---------------------------------------------------------------------------
# Watchdog / hang detection
# ---------------------------------------------------------------------------


def test_watchdog_reaps_stalled_invocation_and_pipeline_recovers():
    # Stall one application invocation for 30 frame times: far beyond the
    # watchdog threshold (4 deadlines), so it must be killed, its record
    # marked, its core reclaimed, and later invocations must still run.
    plan = FaultPlan(seed=0).stall_at("application", index=5, ticks=30.0)
    config = SystemConfig(duration_s=1.0, fidelity="model", seed=0)
    runtime = build_runtime(
        DESKTOP, "platformer", config, fault_plan=plan, supervision=SupervisorConfig()
    )
    result = runtime.run()
    assert result.logger.kill_count("application") == 1
    killed = [r for r in result.logger.for_plugin("application") if r.killed]
    assert killed[0].index == 5
    assert killed[0].missed_deadline
    assert killed[0].cpu_time == 0.0
    hangs = runtime.supervisor.events_of_kind("hang")
    assert len(hangs) == 1 and hangs[0].plugin == "application"
    # Recovery: invocations after the kill completed normally.
    later = [r for r in result.logger.for_plugin("application") if r.index > 5 and not r.killed]
    assert len(later) > 50
    # No leaked CPU slot: utilization stays meaningful (< 1 core pinned).
    assert 0.0 < result.utilization["cpu"] < 1.0


def test_watchdog_timeout_scales_with_deadline():
    sup = RuntimeSupervisor(SupervisorConfig(watchdog_factor=4.0, watchdog_default=0.25))
    assert sup.watchdog_timeout(0.01) == pytest.approx(0.04)
    assert sup.watchdog_timeout(None) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Quarantine edges: empty history, stopped drivers, drop accounting
# ---------------------------------------------------------------------------


def test_quarantined_plugin_stops_running_and_inflating_drops():
    plan = FaultPlan(seed=0).crash("camera", rate=1.0)
    config = SystemConfig(duration_s=2.0, fidelity="model", seed=0)
    runtime = build_runtime(
        DESKTOP, "platformer", config, fault_plan=plan,
        supervision=SupervisorConfig(max_consecutive_failures=3,
                                     max_retries_per_invocation=0),
    )
    result = runtime.run()
    assert runtime.supervisor.is_quarantined("camera")
    quarantine_time = runtime.supervisor.plugin_health("camera").quarantined_at
    # The driver stopped: no camera record or drop after quarantine.
    for record in result.logger.for_plugin("camera"):
        assert record.scheduled_at <= quarantine_time
    for drop in result.logger.drops:
        if drop.plugin == "camera":
            assert drop.scheduled_at <= quarantine_time
    # Regression: crash-before-publish with zero retries means the camera
    # topic has an *empty history*; the bisect must answer None, not
    # IndexError, for every consumer that polls it after quarantine.
    camera_topic = runtime.switchboard.topic("camera")
    assert camera_topic.count == 0
    assert camera_topic.get_latest() is None
    assert camera_topic.get_latest_before(math.inf) is None
    empty = Topic("never_written")
    assert empty.get_latest_before(math.inf) is None
    assert empty.get_latest() is None


def test_get_latest_before_with_equal_timestamps_from_duplicates():
    # Regression for the duplicate-injection path: among equal publish
    # times the *latest-published* event must win, and bisect must not
    # step past the run of ties.
    topic = Topic("t")
    topic.put(1.0, "a")
    topic.put(2.0, "b1")
    topic.put(2.0, "b2")   # duplicate: equal timestamp, later sequence
    topic.put(3.0, "c")
    assert topic.get_latest_before(2.0).data == "b2"
    assert topic.get_latest_before(2.5).data == "b2"
    assert topic.get_latest_before(0.5) is None
    assert topic.get_latest_before(3.0).data == "c"


def test_ring_eviction_correct_under_reader_lag():
    # A topic with a tiny ring: the lagging synchronous reader still sees
    # every event exactly once even after the ring evicted them, and
    # get_latest_before answers from the retained window only.
    topic = Topic("t", history=4)
    reader = topic.subscribe_queue()
    for i in range(20):
        topic.put(float(i), i)
    assert len(list(topic.history())) == 4
    assert [e.data for e in topic.history()] == [16, 17, 18, 19]
    drained = reader.drain()
    assert [e.data for e in drained] == list(range(20))
    # Bisect agrees with a reference linear scan over the retained ring.
    for query in (15.5, 16.0, 17.3, 19.0, 25.0):
        reference = None
        for event in topic.history():
            if event.publish_time <= query:
                reference = event
        assert topic.get_latest_before(query) is reference
    # Older than the retained window: nothing to return.
    assert topic.get_latest_before(10.0) is None


# ---------------------------------------------------------------------------
# Deadline accounting on the fault paths
# ---------------------------------------------------------------------------


def test_retried_invocation_deadline_measured_from_original_schedule():
    # The backoff pushes the retried camera invocation past its 66.7 ms
    # period; the record must charge the miss against the *original*
    # scheduled_at, not the retry time.
    plan = FaultPlan(seed=0).crash_at("camera", index=2)
    config = SystemConfig(duration_s=1.0, fidelity="model", seed=0)
    runtime = build_runtime(
        DESKTOP, "platformer", config, fault_plan=plan,
        supervision=SupervisorConfig(backoff_initial=0.08),  # > camera period
    )
    result = runtime.run()
    record = next(r for r in result.logger.for_plugin("camera") if r.index == 2)
    assert record.scheduled_at == pytest.approx(2 * config.camera_period)
    assert record.end - record.scheduled_at > config.camera_period
    assert record.missed_deadline


def test_clock_skew_shifts_component_view_of_time():
    # Paired runs, identical seed: the only difference is the 4 ms skew
    # on the camera's clock, so every camera datum must be stamped
    # exactly 4 ms later than in the baseline run.
    def camera_data_times(plan):
        config = SystemConfig(duration_s=0.5, fidelity="model", seed=0)
        runtime = build_runtime(
            DESKTOP, "platformer", config, fault_plan=plan,
            supervision=SupervisorConfig() if plan is not None else None,
        )
        times = []
        runtime.switchboard.topic("camera").subscribe_callback(
            lambda e: times.append(e.effective_data_time)
        )
        runtime.run()
        return times

    plan = FaultPlan(seed=0).skew_clock("camera", offset=0.004)
    baseline = camera_data_times(None)
    skewed = camera_data_times(plan)
    assert len(baseline) == len(skewed) > 0
    for base, skew in zip(baseline, skewed):
        assert skew - base == pytest.approx(0.004, abs=1e-9)
    assert plan.injections("skew")  # logged at begin_run


# ---------------------------------------------------------------------------
# Poison events and the dead-letter topic
# ---------------------------------------------------------------------------


def test_poison_events_route_to_dead_letter_not_reader_death():
    # Full fidelity: corrupted camera frames make the real VIO front-end
    # raise; the supervisor must keep VIO alive, dead-letter the poison,
    # and VIO must keep producing estimates from the good frames.
    plan = FaultPlan(seed=5).corrupt("camera", rate=0.2)
    config = SystemConfig(duration_s=2.0, fidelity="full", seed=0)
    runtime = build_runtime(
        DESKTOP, "platformer", config, fault_plan=plan, supervision=SupervisorConfig()
    )
    result = runtime.run()
    corrupted = len(plan.injections("corrupt"))
    assert corrupted > 0
    dead_letters = runtime.switchboard.topic("dead_letter").count
    assert dead_letters == corrupted
    for event in runtime.switchboard.topic("dead_letter").history():
        assert isinstance(event.data.data, Corrupted)
    assert not runtime.supervisor.is_quarantined("vio")
    assert len(result.vio_trajectory) > 10  # still tracking on good frames


def test_zero_overhead_when_no_plan_installed():
    # Without a plan, no injector or supervisor is attached anywhere, so
    # every hook stays a None-check.
    config = SystemConfig(duration_s=0.5, fidelity="model", seed=0)
    runtime = build_runtime(DESKTOP, "platformer", config)
    assert runtime.fault_plan is None
    assert runtime.supervisor is None
    assert runtime.scheduler.injector is None
    assert runtime.scheduler.supervisor is None
    assert runtime.switchboard.topic("imu")._injector is None
    sb = Switchboard()
    assert sb.topic("x")._injector is None
