"""Tests for the alternative implementations and auxiliary outputs:
EKF-SLAM VIO (Table II's second VIO slot), surfel extraction, and the
temporal / audio quality metrics."""

import os

import numpy as np
import pytest

from repro.maths.se3 import Pose
from repro.perception.vio.ekf_slam import TASK_NAMES as EKF_TASKS
from repro.perception.vio.ekf_slam import EkfSlamVio
from repro.perception.vio.msckf import Msckf, MsckfConfig


def _run(filter_class, dataset):
    vio = dataset.start_vio(filter_class, MsckfConfig.standard())
    return vio, np.array([error for error, _seconds in dataset.replay(vio)])


# ---------------------------------------------------------------------------
# EKF-SLAM VIO
# ---------------------------------------------------------------------------


def test_ekf_slam_converges(small_dataset):
    vio, errors = _run(EkfSlamVio, small_dataset)
    assert errors.mean() < 0.15
    assert errors.max() < 0.5
    assert len(vio.state.landmarks) > 5


def test_ekf_slam_same_interface_as_msckf(small_dataset):
    """The two implementations are drop-in interchangeable (Table II)."""
    ekf, _ = _run(EkfSlamVio, small_dataset)
    msckf, _ = _run(Msckf, small_dataset)
    for attribute in ("process_imu", "process_frame", "estimate", "task_breakdown"):
        assert hasattr(ekf, attribute) and hasattr(msckf, attribute)
    assert type(ekf.estimate()) is type(msckf.estimate())


def test_ekf_slam_no_clone_window(small_dataset):
    """Structural difference: the EKF-SLAM carries no persistent clones."""
    ekf, _ = _run(EkfSlamVio, small_dataset)
    assert len(ekf.state.clones) == 0
    assert len(ekf.state.landmarks) > 0


def test_ekf_slam_task_breakdown(small_dataset):
    ekf, _ = _run(EkfSlamVio, small_dataset)
    breakdown = ekf.task_breakdown()
    assert set(breakdown) == set(EKF_TASKS)
    assert breakdown["slam_update"] > 0
    assert breakdown["landmark_initialization"] > 0


def test_ekf_slam_in_vio_plugin():
    """The VIO plugin accepts the alternative filter (modularity claim)."""
    from repro.core.config import SystemConfig
    from repro.core.runtime import build_runtime
    from repro.hardware.platform import DESKTOP
    from repro.plugins.perception import VioPlugin

    class EkfVioPlugin(VioPlugin):
        filter_class = EkfSlamVio

    config = SystemConfig(duration_s=2.0, fidelity="full", seed=0)
    runtime = build_runtime(DESKTOP, "ar_demo", config)
    runtime.plugins = [
        EkfVioPlugin(config, p.camera, p.trajectory) if isinstance(p, VioPlugin) else p
        for p in runtime.plugins
    ]
    result = runtime.run()
    assert result.frame_rate("vio") > 13
    assert result.vio_ate().mean_m < 0.15


# ---------------------------------------------------------------------------
# Surfel extraction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fused_volume_and_camera():
    from repro.perception.reconstruction.tsdf import TsdfVolume
    from repro.sensors.depth import DepthCamera, DepthScene

    camera = DepthCamera(DepthScene.default(seed=3), width=48, height=36, noise_std=0.0)
    volume = TsdfVolume(resolution=64)
    for yaw in (0.0, 1.5, 3.0, 4.5):
        from repro.maths.quaternion import quat_from_axis_angle

        pose = Pose(
            np.array([0.0, 0.0, 1.5]),
            quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw),
        )
        volume.integrate(camera.render(pose, noisy=False), pose, camera)
    return volume, camera


def test_surfel_extraction_nonempty(fused_volume_and_camera):
    from repro.perception.reconstruction.surface import extract_surfels

    volume, _camera = fused_volume_and_camera
    cloud = extract_surfels(volume)
    assert len(cloud) > 500
    assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-6)
    assert np.all(cloud.confidences >= 1.0)


def test_surfels_lie_on_scene_surface(fused_volume_and_camera):
    from repro.perception.reconstruction.surface import extract_surfels, surface_error_vs_scene

    volume, camera = fused_volume_and_camera
    cloud = extract_surfels(volume)
    error = surface_error_vs_scene(cloud, camera)
    assert error < 2.5 * volume.voxel_size  # within a couple of voxels


def test_surfel_ply_export(fused_volume_and_camera, tmp_path):
    from repro.perception.reconstruction.surface import extract_surfels

    volume, _camera = fused_volume_and_camera
    cloud = extract_surfels(volume, max_surfels=500)
    path = os.path.join(tmp_path, "map.ply")
    cloud.save_ply(path)
    with open(path) as handle:
        header = handle.readline().strip()
        assert header == "ply"
        text = handle.read()
    assert f"element vertex {len(cloud)}" in text


def test_surfel_empty_volume():
    from repro.perception.reconstruction.surface import extract_surfels
    from repro.perception.reconstruction.tsdf import TsdfVolume

    cloud = extract_surfels(TsdfVolume(resolution=16))
    assert len(cloud) == 0
    with pytest.raises(ValueError):
        extract_surfels(TsdfVolume(resolution=16), min_weight=0.0)


# ---------------------------------------------------------------------------
# Temporal quality metrics
# ---------------------------------------------------------------------------


def _make_events(times, yaw_rates=None):
    from repro.maths.quaternion import quat_from_axis_angle
    from repro.plugins.visual import DisplayEvent

    events = []
    yaw = 0.0
    previous = times[0]
    for i, t in enumerate(times):
        rate = yaw_rates[i] if yaw_rates is not None else 0.5
        yaw += rate * (t - previous)
        previous = t
        events.append(
            DisplayEvent(
                submit_time=t,
                frame_pose=Pose(np.zeros(3)),
                warp_pose=Pose(
                    np.zeros(3), quat_from_axis_angle(np.array([0, 0, 1.0]), yaw)
                ),
                imu_age=0.001,
            )
        )
    return events


def test_temporal_quality_smooth_stream():
    from repro.metrics.mtp import MtpSample
    from repro.metrics.temporal import temporal_quality

    vsync = 1 / 120
    times = np.arange(60) * vsync
    events = _make_events(times)
    samples = [MtpSample(t, 0.001, 0.002, 0.0005) for t in times]
    quality = temporal_quality(events, samples, vsync)
    assert quality.frame_interval_mean_ms == pytest.approx(vsync * 1e3, rel=1e-6)
    assert quality.frame_interval_jitter_ms == pytest.approx(0.0, abs=1e-9)
    assert quality.dropped_vsync_fraction == 0.0
    assert quality.pose_jerk_rad_s2 == pytest.approx(0.0, abs=1e-6)


def test_temporal_quality_detects_drops_and_judder():
    from repro.metrics.mtp import MtpSample
    from repro.metrics.temporal import temporal_quality

    vsync = 1 / 120
    rng = np.random.default_rng(0)
    # Every third frame slips one vsync; yaw rate oscillates (judder).
    times = []
    t = 0.0
    for i in range(60):
        t += vsync * (2 if i % 3 == 0 else 1)
        times.append(t)
    rates = 0.5 + 0.8 * rng.standard_normal(60)
    events = _make_events(np.array(times), yaw_rates=rates)
    samples = [MtpSample(t, 0.001, 0.002, rng.uniform(0, 0.008)) for t in times]
    quality = temporal_quality(events, samples, vsync)
    assert quality.dropped_vsync_fraction > 0.25
    assert quality.frame_interval_jitter_ms > 1.0
    assert quality.pose_jerk_rad_s2 > 10.0
    assert quality.mtp_cov > 0.2


def test_temporal_quality_validation():
    from repro.metrics.temporal import temporal_quality

    with pytest.raises(ValueError):
        temporal_quality([], [], 1 / 120)
    events = _make_events(np.arange(5) / 120)
    with pytest.raises(ValueError):
        temporal_quality(events, [], 0.0)


# ---------------------------------------------------------------------------
# Audio spatial similarity (AMBIQUAL stand-in)
# ---------------------------------------------------------------------------


def _binaural(yaw, seed=0):
    from repro.audio.encoding import AudioEncoder
    from repro.audio.playback import AudioPlayback
    from repro.audio.sources import SpeechLikeSource
    from repro.maths.quaternion import quat_from_axis_angle

    encoder = AudioEncoder([SpeechLikeSource(seed=seed)], block_size=1024)
    playback = AudioPlayback(block_size=1024)
    pose = Pose(np.zeros(3), quat_from_axis_angle(np.array([0, 0, 1.0]), yaw))
    blocks = [playback.render_block(encoder.encode_next_block(), pose) for _ in range(4)]
    return np.concatenate(blocks, axis=1)


def test_audio_similarity_identity_is_high():
    from repro.metrics.temporal import audio_spatial_similarity

    render = _binaural(0.0)
    assert audio_spatial_similarity(render, render) > 0.95


def test_audio_similarity_penalizes_rotated_render():
    from repro.metrics.temporal import audio_spatial_similarity

    front = _binaural(0.0)
    turned = _binaural(np.pi / 2)
    assert audio_spatial_similarity(front, turned) < audio_spatial_similarity(front, front)


def test_audio_similarity_validation():
    from repro.metrics.temporal import audio_spatial_similarity

    with pytest.raises(ValueError):
        audio_spatial_similarity(np.zeros((2, 100)), np.zeros((2, 200)))
    with pytest.raises(ValueError):
        audio_spatial_similarity(np.zeros((2, 10)), np.zeros((2, 10)))
