"""Observability layer: tracing, export, and MTP attribution.

Covers the acceptance criteria of the causal-tracing work:

- traced integrated runs export valid Chrome trace JSON whose flow
  arrows link >= 95% of displayed frames back to an IMU sample;
- the trace-derived critical-path decomposition reproduces the online
  MTP metric per frame to 1e-6 s;
- supervisor lifecycle events are routed onto ``sys/observability``;
- the run summary's publish counts and queue high-water marks match what
  the switchboard delivered and held;
- every core hook is a None-check: untraced runs see no trace state;
- the profiler nests kernel ``span()`` blocks and task blocks as spans in
  the invocation spans of the run that is running.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis import critical_path as critical_path_cli
from repro.core.config import SystemConfig
from repro.core.runtime import RuntimeResult, build_runtime
from repro.hardware.platform import DESKTOP
from repro.obs import (
    SpanLink,
    TraceContext,
    Tracer,
    chrome_trace,
    decomposition_summary,
    lineage_fraction,
    render_report,
    validate_chrome_trace,
)
from repro.perf import profile
from repro.resilience import FaultPlan, SupervisorConfig


@pytest.fixture(scope="module")
def traced_run():
    """One short full-fidelity traced run shared by the e2e assertions."""
    config = SystemConfig(duration_s=2.0, fidelity="full", seed=0)
    runtime = build_runtime(DESKTOP, "sponza", config, observability=True)
    poses = []
    runtime.switchboard.topic("fast_pose").subscribe_callback(poses.append)
    result = runtime.run()
    return runtime, result, poses


# ---------------------------------------------------------------------------
# Tracer unit behaviour
# ---------------------------------------------------------------------------


def test_span_parenting_explicit_active_fresh():
    tracer = Tracer()
    root = tracer.start_span("root", track="a", kind="invocation")
    assert root.parent_id is None  # fresh trace
    with tracer.activate(root):
        child = tracer.start_span("child", track="a")
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
    other = tracer.start_span("sibling", track="b", parent=root.context)
    assert other.parent_id == root.span_id
    fresh = tracer.start_span("fresh", track="c")
    assert fresh.trace_id != root.trace_id


def test_activation_stack_nesting_and_current():
    tracer = Tracer()
    assert tracer.current() is None
    with tracer.span("outer", track="t") as outer:
        assert tracer.current() is outer
        with tracer.span("inner", track="t") as inner:
            assert tracer.current() is inner
            assert inner.parent_id == outer.span_id
        assert tracer.current() is outer
    assert tracer.current() is None
    assert all(s.finished for s in tracer.spans)


def test_annotate_and_link_noop_outside_activation():
    tracer = Tracer()
    tracer.annotate(ignored=True)  # must not raise
    tracer.link(SpanLink("t", 0, 0.0, None, None))
    assert tracer.spans == []


def test_mark_is_instant_and_ancestry_walks_to_root():
    tracer = Tracer()
    mark = tracer.mark("crash", track="supervisor/vio")
    assert mark.duration == 0.0 and mark.finished
    a = tracer.start_span("a", track="x", kind="invocation")
    with tracer.activate(a):
        b = tracer.start_span("b", track="x")
        with tracer.activate(b):
            c = tracer.start_span("c", track="x")
    assert [s.name for s in tracer.ancestry(c)] == ["b", "a"]


def test_trace_context_child_of():
    parent = TraceContext(trace_id=7, span_id=3)
    child = parent.child_of()
    assert child.trace_id == 7 and child.parent_id == 3


# ---------------------------------------------------------------------------
# End-to-end: traced integrated run
# ---------------------------------------------------------------------------


def test_events_carry_trace_contexts(traced_run):
    _, _, poses = traced_run
    assert poses, "expected fast_pose traffic"
    # Every pose published from inside an invocation span is stamped.
    assert all(isinstance(e.trace, TraceContext) for e in poses)


def test_invocation_spans_cover_every_logged_invocation(traced_run):
    runtime, result, _ = traced_run
    tracer = result.observability.tracer
    for plugin in ("imu", "camera", "vio", "integrator", "timewarp"):
        # A record is logged for every finished, non-skipped invocation;
        # an invocation still in flight when the engine stops leaves an
        # unfinished span and no record.
        spans = [
            s
            for s in tracer.by_track(plugin)
            if s.kind == "invocation" and s.finished and not s.attributes.get("skipped")
        ]
        records = result.logger.for_plugin(plugin)
        assert len(spans) == len(records)


def test_exported_chrome_trace_is_valid(traced_run):
    _, result, _ = traced_run
    payload = result.chrome_trace()
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    thread_names = {
        e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"imu", "vio", "integrator", "timewarp"} <= thread_names
    assert any(e["ph"] == "s" for e in events), "expected flow arrows"
    assert payload["otherData"]["clock"] == "simulated"


def test_lineage_links_at_least_95_percent_of_frames(traced_run):
    _, result, _ = traced_run
    frames = result.critical_paths()
    assert len(frames) == len(result.mtp_samples)
    assert lineage_fraction(frames) >= 0.95


def test_critical_path_matches_online_mtp_within_1e6(traced_run):
    _, result, _ = traced_run
    frames = result.critical_paths()
    online = {round(s.frame_time, 9): s for s in result.mtp_samples}
    assert len(frames) == len(online)
    for frame in frames:
        sample = online[round(frame.frame_time, 9)]
        assert frame.imu_age == pytest.approx(sample.imu_age, abs=1e-6)
        assert frame.reprojection == pytest.approx(sample.reprojection_time, abs=1e-6)
        assert frame.swap == pytest.approx(sample.swap_wait, abs=1e-6)
        assert frame.total == pytest.approx(sample.total, abs=1e-6)


def test_decomposition_summary_and_report(traced_run):
    _, result, _ = traced_run
    frames = result.critical_paths()
    summary = decomposition_summary(frames)
    assert summary["count"] == len(frames)
    segs = summary["segment_mean_ms"]
    assert summary["mean_ms"] == pytest.approx(
        segs["imu_age"] + segs["reprojection"] + segs["swap"], rel=1e-9
    )
    assert summary["slowest_edge"] in ("imu_age", "reprojection", "swap")
    text = render_report(frames)
    assert "Critical-path MTP attribution" in text
    assert render_report([]).startswith("critical path: no displayed frames")


def test_summary_publishes_match_delivered_events(traced_run):
    _, result, poses = traced_run
    summary = result.summary()["observability"]
    assert summary["spans"] > 0
    assert summary["publishes"]["fast_pose"] == len(poses) > 0


def test_model_fidelity_holds_no_imu_queue(traced_run):
    # Only full-fidelity VIO drains IMU samples; at model fidelity nothing
    # subscribes a queue to them.  At full fidelity VIO drains its queue on
    # every frame, so it stays below twice the IMU samples per camera frame.
    _, full, _ = traced_run
    config = SystemConfig(duration_s=2.0, fidelity="model", seed=0)
    model = build_runtime(DESKTOP, "sponza", config, observability=True).run()
    assert "imu" not in model.summary()["observability"]["queue_high_water"]
    per_frame = full.config.imu_rate_hz / full.config.camera_rate_hz
    assert 0 < full.summary()["observability"]["queue_high_water"]["imu"] < 2 * per_frame


def test_kernel_spans_nest_inside_invocations():
    """``span()`` blocks fire as kernel spans inside the active plugin span
    when profiling is enabled -- and stay span-free outside activations."""
    tracer = Tracer()
    profile.set_tracer(tracer)
    profile.enable_profiling(True)
    invocation = tracer.start_span("timewarp#0", track="timewarp", kind="invocation")
    with tracer.activate(invocation):
        profile_square(3)
    profile_square(4)  # outside any span: recorded, but no span emitted
    kernels = [s for s in tracer.spans if s.kind == "kernel"]
    assert len(kernels) == 1
    kernel = kernels[0]
    assert kernel.parent_id == invocation.span_id
    assert kernel.track == "timewarp"
    assert kernel.attributes["wall_s"] > 0
    assert kernel.duration == 0.0  # zero simulated time; wall_s carries cost
    assert profile.profile_summary()["obs_test.square"]["calls"] == 2


def test_task_timer_spans_nest_inside_invocations():
    """A component's Table VII tasks fire as ``<component>.<task>`` kernel
    spans inside the active plugin span when profiling is enabled."""
    from repro.audio.encoding import TASK_NAMES, AudioEncoder
    from repro.audio.sources import SpeechLikeSource

    encoder = AudioEncoder([SpeechLikeSource(seed=0)])
    tracer = Tracer()
    profile.set_tracer(tracer)
    profile.enable_profiling(True)
    invocation = tracer.start_span("audio_encoding#0", track="audio_encoding", kind="invocation")
    with tracer.activate(invocation):
        encoder.encode_next_block()
    encoder.encode_next_block()  # outside any span: recorded, but no span emitted
    kernels = [s for s in tracer.spans if s.kind == "kernel"]
    assert [k.name for k in kernels] == [f"audio_encoding.{task}" for task in TASK_NAMES]
    for kernel in kernels:
        assert kernel.parent_id == invocation.span_id
        assert kernel.track == "audio_encoding"
        assert kernel.duration == 0.0
    summary = profile.profile_summary()
    for task in TASK_NAMES:
        assert summary[f"audio_encoding.{task}"]["calls"] == 2
    assert list(encoder.task_breakdown()) == list(TASK_NAMES)


def test_traced_runtime_installs_profile_tracer():
    """The run's tracer is installed while it runs, then the previous one
    is back -- also when the run raises."""
    config = SystemConfig(duration_s=0.5, fidelity="model", seed=0)
    outer = Tracer()
    profile.set_tracer(outer)
    runtime = build_runtime(DESKTOP, "platformer", config, observability=True)
    assert profile._tracer is outer  # building installs nothing
    seen = []
    runtime.switchboard.topic("fast_pose").subscribe_callback(
        lambda _event: seen.append(profile._tracer)
    )
    runtime.run()
    assert seen and all(tracer is runtime.observability.tracer for tracer in seen)
    assert profile._tracer is outer

    failing = build_runtime(DESKTOP, "platformer", config, observability=True)

    def fail(_event):
        raise RuntimeError("subscriber failure")

    failing.switchboard.topic("fast_pose").subscribe_callback(fail)
    with pytest.raises(RuntimeError, match="subscriber failure"):
        failing.run()
    assert profile._tracer is outer


def test_traced_run_keeps_kernel_spans_when_another_runtime_is_built():
    """Task blocks nest in the running runtime's spans, not in those of
    whichever traced runtime was built last."""
    from repro.audio import encoding, playback
    from repro.perception.vio import msckf

    config = SystemConfig(duration_s=0.5, fidelity="full", seed=0)
    first = build_runtime(DESKTOP, "sponza", config, observability=True)
    second = build_runtime(DESKTOP, "sponza", config, observability=True)
    profile.enable_profiling(True)
    first.run()
    tracer = first.observability.tracer
    kernels = [s for s in tracer.spans if s.kind == "kernel"]
    expected = {
        f"{component}.{task}"
        for component, tasks in (
            ("audio_encoding", encoding.TASK_NAMES),
            ("audio_playback", playback.TASK_NAMES),
            ("msckf", msckf.TASK_NAMES),
        )
        for task in tasks
    }
    assert {k.name for k in kernels} == expected
    for kernel in kernels:
        parent = tracer.get(kernel.parent_id)
        assert parent.kind == "invocation" and parent.track == kernel.track
    assert not [s for s in second.observability.tracer.spans if s.kind == "kernel"]


# ---------------------------------------------------------------------------
# Zero overhead when off
# ---------------------------------------------------------------------------


def test_untraced_run_sees_no_trace_state():
    config = SystemConfig(duration_s=0.5, fidelity="model", seed=0)
    runtime = build_runtime(DESKTOP, "platformer", config)
    captured = {name: [] for name in ("imu", "fast_pose", "frame")}
    for name, log in captured.items():
        runtime.switchboard.topic(name).subscribe_callback(log.append)
    result = runtime.run()
    assert result.observability is None
    assert runtime.scheduler.obs is None
    assert all(p.obs is None for p in runtime.plugins)
    for name, log in captured.items():
        assert log, f"expected {name} traffic"
        assert all(e.trace is None for e in log)
    with pytest.raises(RuntimeError, match="observability"):
        result.chrome_trace()
    with pytest.raises(RuntimeError, match="observability"):
        result.critical_paths()
    assert "observability" not in result.summary()


# ---------------------------------------------------------------------------
# Supervisor lifecycle events on sys/observability (regression)
# ---------------------------------------------------------------------------


def test_supervisor_events_routed_to_sys_observability():
    # vio crashes on every invocation: each poison frame produces crash ->
    # retry -> crash -> dead_letter, and the sixth consecutive failure
    # quarantines the plugin.  All of it must appear on sys/observability.
    plan = FaultPlan(seed=0).crash("vio", rate=1.0)
    config = SystemConfig(duration_s=1.5, fidelity="model", seed=0)
    runtime = build_runtime(
        DESKTOP,
        "platformer",
        config,
        fault_plan=plan,
        supervision=SupervisorConfig(),
        observability=True,
    )
    seen = []
    runtime.switchboard.topic("sys/observability").subscribe_callback(
        lambda e: seen.append(e.data)
    )
    result = runtime.run()

    kinds = {event.kind for event in seen}
    assert {"crash", "retry", "dead_letter", "quarantine"} <= kinds
    # The ledger and the topic agree event-for-event.
    assert [e.kind for e in seen] == [e.kind for e in runtime.supervisor.events]

    obs = result.observability
    # Each event also lands as an instant span on the supervisor lane.
    marks = [s for s in obs.tracer.by_track("supervisor/vio") if s.kind == "mark"]
    assert len(marks) == len(seen)
    # And the exported trace stays structurally valid under chaos.
    assert validate_chrome_trace(result.chrome_trace()) == []


def test_span_deadline_misses_match_the_records_under_watchdog_kills():
    """A watchdog-killed invocation misses its deadline in the records and
    in its span alike: per plugin, the spans marked ``missed_deadline`` are
    as many as the records that missed."""
    from repro.resilience.plans import CANNED_PLANS

    runtime = build_runtime(
        DESKTOP,
        "platformer",
        SystemConfig(duration_s=3.0, seed=3),
        fault_plan=CANNED_PLANS["renderer_stall"](3),
        supervision=SupervisorConfig(),
        observability=True,
    )
    result = runtime.run()
    tracer = result.observability.tracer
    records = result.logger.for_plugin("application")
    assert any(r.killed and r.missed_deadline for r in records)
    for plugin in result.logger.plugins():
        spans = [
            s
            for s in tracer.by_track(plugin)
            if s.kind == "invocation" and s.attributes.get("missed_deadline")
        ]
        misses = [r for r in result.logger.for_plugin(plugin) if r.missed_deadline]
        assert len(spans) == len(misses), plugin


def test_standalone_supervisor_works_without_switchboard():
    from repro.resilience import RuntimeSupervisor

    sup = RuntimeSupervisor(SupervisorConfig())
    assert sup.record_failure("vio", 0.1, RuntimeError("boom")) == "retry"
    sup.record_retry("vio", 0.1, delay=0.02)
    assert [e.kind for e in sup.events] == ["crash", "retry"]


# ---------------------------------------------------------------------------
# Profiler test isolation
# ---------------------------------------------------------------------------


def profile_square(x):
    with profile.span("obs_test.square"):
        return x * x


def test_profiler_state_isolated_between_tests():
    # The autouse fixture must have cleared the previous test's registry
    # and restored the disabled default.
    assert not profile._enabled
    assert profile.profile_summary() == {}


def test_determinism_same_seed_same_trace():
    config = SystemConfig(duration_s=1.0, fidelity="model", seed=3)

    def run_once():
        runtime = build_runtime(DESKTOP, "platformer", config, observability=True)
        result = runtime.run()
        return chrome_trace(result.observability.tracer)

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# The critical-path CLI's gate
# ---------------------------------------------------------------------------

GATE_ARGS = ["--duration", "1", "--fidelity", "model"]


def test_critical_path_cli_passes_and_writes_valid_trace(tmp_path):
    out = tmp_path / "chrome_trace.json"
    assert critical_path_cli.main(GATE_ARGS + ["--trace-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["traceEvents"]
    assert validate_chrome_trace(payload) == []


def _unlink(frames, every):
    """Frames with every ``every``-th frame's IMU lineage cut."""
    return [replace(f, linked_to_imu=False) if i % every == 0 else f for i, f in enumerate(frames)]


def _shift_first(frames, **deltas):
    """Frames with the first frame's fields moved by ``deltas``."""
    first = frames[0]
    shifted = replace(first, **{k: getattr(first, k) + v for k, v in deltas.items()})
    return [shifted] + frames[1:]


def _doctor_frames(monkeypatch, doctor):
    real = RuntimeResult.critical_paths
    monkeypatch.setattr(RuntimeResult, "critical_paths", lambda self: doctor(real(self)))


def test_critical_path_cli_passes_inside_the_bars(monkeypatch):
    # One frame in 50 unlinked (lineage 0.98 >= 0.95) and a 0.5 us error
    # (<= 1e-6 s) stay inside the gate.
    _doctor_frames(monkeypatch, lambda frames: _shift_first(_unlink(frames, 50), imu_age=0.5e-6))
    assert critical_path_cli.main(GATE_ARGS) == 0


FRAME_FAILURES = {
    # One frame in ten unlinked: lineage at most 0.90.
    "lineage": (lambda frames: _unlink(frames, 10), "lineage"),
    "parity": (lambda frames: _shift_first(frames, imu_age=2e-6), "parity error"),
    "unmatched": (lambda frames: _shift_first(frames, frame_time=1e-3), "matched an online MTP sample"),
    "no_frames": (lambda frames: [], "no displayed frames"),
}


@pytest.mark.parametrize("failure", sorted(FRAME_FAILURES))
def test_critical_path_cli_fails_on_bad_frames(failure, monkeypatch, capsys):
    doctor, message = FRAME_FAILURES[failure]
    _doctor_frames(monkeypatch, doctor)
    assert critical_path_cli.main(GATE_ARGS) == 1
    assert message in capsys.readouterr().err


def test_critical_path_cli_fails_on_invalid_trace(monkeypatch, capsys):
    # Validated with or without --trace-out.
    real = RuntimeResult.chrome_trace
    negative = {"name": "negative", "ph": "X", "ts": -1.0, "dur": 1.0, "pid": 1, "tid": 1}

    def invalid(self):
        trace = real(self)
        return {**trace, "traceEvents": trace["traceEvents"] + [negative]}

    monkeypatch.setattr(RuntimeResult, "chrome_trace", invalid)
    assert critical_path_cli.main(GATE_ARGS) == 1
    assert "chrome trace schema" in capsys.readouterr().err
