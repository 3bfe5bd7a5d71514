"""Tests for the paper's documented extensions: offloading (§II fn. 2),
trace record/replay (§V.G), pose prediction (fn. 3), exposure sweep
(§V.C) and the extended plugins."""

import os

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.runtime import build_runtime
from repro.hardware.platform import DESKTOP, JETSON_LP
from repro.plugins.offload import (
    NetworkLink,
    OffloadedVioPlugin,
    build_offloaded_runtime,
)


# ---------------------------------------------------------------------------
# Offloading
# ---------------------------------------------------------------------------


def test_network_link_times_scale_with_payload():
    link = NetworkLink(latency_s=0.005, uplink_bps=1e6, jitter_s=0.0)
    rng = np.random.default_rng(0)
    small = link.uplink_time(1000, rng)
    large = link.uplink_time(100_000, rng)
    assert large > small
    assert small == pytest.approx(0.005 + 8e-3, rel=0.01)


def test_network_link_validation():
    with pytest.raises(ValueError):
        NetworkLink(latency_s=-1.0)
    with pytest.raises(ValueError):
        NetworkLink(uplink_bps=0.0)


@pytest.fixture(scope="module")
def offloaded_run():
    config = SystemConfig(duration_s=3.0, fidelity="full", seed=0)
    runtime = build_offloaded_runtime(JETSON_LP, DESKTOP, "platformer", config)
    result = runtime.run()
    plugin = next(p for p in runtime.plugins if isinstance(p, OffloadedVioPlugin))
    return result, plugin


def test_offloaded_vio_restores_camera_rate(offloaded_run):
    result, plugin = offloaded_run
    # Local Jetson-LP VIO drops frames; offloaded keeps camera rate.
    assert result.frame_rate("vio") > 14.0
    assert len(plugin.round_trips) > 30


def test_offloaded_vio_frees_local_cpu(offloaded_run):
    result, _plugin = offloaded_run
    assert result.cpu_share().get("vio", 1.0) < 0.1


def test_offloaded_round_trip_includes_all_legs(offloaded_run):
    _result, plugin = offloaded_run
    rtt = np.mean(plugin.round_trips)
    # Two 4 ms legs + desktop VIO (~12 ms) plus transfer time.
    assert 0.015 < rtt < 0.05


def test_offloaded_estimates_still_track_truth(offloaded_run):
    result, _plugin = offloaded_run
    assert result.vio_ate().mean_m < 0.1


def test_high_latency_link_degrades_vio_rate():
    config = SystemConfig(duration_s=2.0, fidelity="full", seed=0)
    slow = NetworkLink(latency_s=0.040)
    runtime = build_offloaded_runtime(JETSON_LP, DESKTOP, "platformer", config, link=slow)
    result = runtime.run()
    # Round trip > camera period: every other frame is dropped.
    assert result.frame_rate("vio") < 10.0


# ---------------------------------------------------------------------------
# Trace record / replay
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded_trace():
    from repro.analysis.trace import TraceRecorder

    config = SystemConfig(duration_s=1.0, fidelity="full", seed=3)
    runtime = build_runtime(DESKTOP, "ar_demo", config)
    recorder = TraceRecorder(runtime.switchboard, ["camera", "imu"])
    runtime.run()
    return recorder.trace


def test_trace_records_all_topics(recorded_trace):
    counts = recorded_trace.counts()
    assert counts["imu"] == pytest.approx(500, abs=5)
    assert counts["camera"] == pytest.approx(15, abs=1)
    assert recorded_trace.duration <= 1.01


def test_trace_events_ordered(recorded_trace):
    times = [e.publish_time for e in recorded_trace.events]
    assert times == sorted(times)


def test_trace_save_load_roundtrip(recorded_trace, tmp_path):
    from repro.analysis.trace import Trace

    path = os.path.join(tmp_path, "sensors.trace")
    recorded_trace.save(path)
    loaded = Trace.load(path)
    assert loaded.counts() == recorded_trace.counts()
    assert loaded.events[0].topic == recorded_trace.events[0].topic


def test_trace_load_rejects_garbage(tmp_path):
    import pickle

    from repro.analysis.trace import Trace

    path = os.path.join(tmp_path, "junk.trace")
    with open(path, "wb") as handle:
        pickle.dump({"not": "a trace"}, handle)
    with pytest.raises(TypeError):
        Trace.load(path)


def test_trace_replay_drives_consumer(recorded_trace):
    """Replay the recorded camera+IMU into a fresh switchboard and count
    what a consumer sees -- the rosbag-style component-driving flow."""
    from repro.analysis.trace import install_replay
    from repro.core.switchboard import Switchboard
    from repro.sim.engine import Engine

    engine = Engine()
    switchboard = Switchboard()
    seen = {"camera": 0, "imu": 0}
    switchboard.topic("camera").subscribe_callback(
        lambda e: seen.__setitem__("camera", seen["camera"] + 1)
    )
    switchboard.topic("imu").subscribe_callback(
        lambda e: seen.__setitem__("imu", seen["imu"] + 1)
    )
    install_replay(engine, switchboard, recorded_trace)
    engine.run()
    assert seen == recorded_trace.counts()
    assert engine.now == pytest.approx(recorded_trace.duration)


def test_trace_recorder_requires_topics():
    from repro.analysis.trace import TraceRecorder
    from repro.core.switchboard import Switchboard

    with pytest.raises(ValueError):
        TraceRecorder(Switchboard(), [])


def test_trace_replay_reproduces_vio():
    """Driving the real VIO from a trace gives the same estimates as the
    original run (determinism of the record/replay path)."""
    from repro.analysis.trace import TraceRecorder, install_replay
    from repro.core.switchboard import Switchboard
    from repro.perception.vio.msckf import Msckf, MsckfConfig
    from repro.sensors.dataset import make_vicon_room_dataset
    from repro.sim.engine import Engine

    dataset = make_vicon_room_dataset(duration=2.0, seed=4)

    def run_vio(camera_events, imu_events):
        vio = Msckf(
            MsckfConfig.standard(),
            dataset.camera.intrinsics,
            dataset.camera.baseline_m,
            dataset.ground_truth(0.0),
            initial_velocity=dataset.trajectory.sample(0.0).velocity,
        )
        estimates = []
        imu_iter = iter(imu_events)
        pending = next(imu_iter, None)
        for frame in camera_events:
            while pending is not None and pending.timestamp <= frame.timestamp:
                if pending.timestamp > vio.state.timestamp:
                    vio.process_imu(pending)
                pending = next(imu_iter, None)
            estimates.append(vio.process_frame(frame))
        return estimates

    direct = run_vio(dataset.camera_frames, dataset.imu_samples)

    # Record the dataset through a switchboard, then replay it.
    from repro.analysis.trace import Trace, TraceEvent

    trace = Trace(topics=("camera", "imu"))
    for sample in dataset.imu_samples:
        trace.events.append(TraceEvent("imu", sample.timestamp, sample.timestamp, sample))
    for frame in dataset.camera_frames:
        trace.events.append(TraceEvent("camera", frame.timestamp, frame.timestamp, frame))
    trace.events.sort(key=lambda e: e.publish_time)

    engine = Engine()
    switchboard = Switchboard()
    replayed_frames, replayed_imu = [], []
    switchboard.topic("camera").subscribe_callback(lambda e: replayed_frames.append(e.data))
    switchboard.topic("imu").subscribe_callback(lambda e: replayed_imu.append(e.data))
    install_replay(engine, switchboard, trace)
    engine.run()
    replayed = run_vio(replayed_frames, replayed_imu)

    assert len(direct) == len(replayed)
    for a, b in zip(direct[-3:], replayed[-3:]):
        assert a.pose.translation_error(b.pose) < 1e-12


# ---------------------------------------------------------------------------
# Pose prediction (footnote 3)
# ---------------------------------------------------------------------------


def _display_pose_error(result):
    errors = []
    for event in result.display_events:
        truth = result.ground_truth(event.submit_time)
        errors.append(event.warp_pose.rotation_error(truth))
    return float(np.mean(errors))


def test_pose_prediction_removes_staleness():
    """Model fidelity isolates staleness (poses are exact but stale):
    prediction should nearly eliminate the display-time pose error."""
    base = SystemConfig(duration_s=3.0, fidelity="model", seed=1)
    without = build_runtime(DESKTOP, "platformer", base).run()
    predicted = build_runtime(
        DESKTOP, "platformer", base.with_overrides(pose_prediction=True)
    ).run()
    assert _display_pose_error(predicted) < 0.1 * _display_pose_error(without)


def test_pose_prediction_full_fidelity_tradeoff():
    """With real (noisy) VIO poses, prediction trades a small translation
    gain against derivative noise in rotation -- the misprediction risk
    footnote 6 warns about.  Assert it at least does not explode."""
    base = SystemConfig(duration_s=2.0, fidelity="full", seed=1)
    without = build_runtime(DESKTOP, "platformer", base).run()
    predicted = build_runtime(
        DESKTOP, "platformer", base.with_overrides(pose_prediction=True)
    ).run()

    def translation_error(result):
        return float(np.mean([
            e.warp_pose.translation_error(result.ground_truth(e.submit_time))
            for e in result.display_events
        ]))

    assert translation_error(predicted) < 1.2 * translation_error(without)
    assert _display_pose_error(predicted) < 3 * _display_pose_error(without)


def test_pose_prediction_does_not_change_mtp_accounting():
    """Footnote 6: MTP does not account for prediction."""
    base = SystemConfig(duration_s=2.0, fidelity="full", seed=1)
    without = build_runtime(DESKTOP, "platformer", base).run().mtp_summary()
    predicted = build_runtime(
        DESKTOP, "platformer", base.with_overrides(pose_prediction=True)
    ).run().mtp_summary()
    assert predicted.mean_ms == pytest.approx(without.mean_ms, rel=0.05)


# ---------------------------------------------------------------------------
# §V.C exposure sweep
# ---------------------------------------------------------------------------


def test_exposure_sweep_tradeoff():
    from repro.analysis.experiments import camera_exposure_sweep

    points = camera_exposure_sweep(exposures_ms=(0.25, 4.0), duration_s=4.0)
    short, long = points
    assert short.sensor_power_w < long.sensor_power_w       # less power...
    assert short.pixel_noise_px > long.pixel_noise_px       # ...noisier pixels
    assert short.vio_ate_cm > long.vio_ate_cm               # ...worse tracking


def test_offload_comparison_structure():
    from repro.analysis.experiments import offload_comparison

    comparison = offload_comparison(duration_s=2.0)
    assert comparison.offloaded_vio_rate_hz >= comparison.local_vio_rate_hz
    assert comparison.offloaded_vio_cpu_share < comparison.local_vio_cpu_share
    assert comparison.mean_round_trip_ms > 5.0
