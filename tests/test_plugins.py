"""Unit tests for individual plugins against a hand-driven switchboard."""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.phonebook import Phonebook
from repro.core.plugin import InvocationContext
from repro.core.switchboard import StampedEvent, Switchboard
from repro.maths.se3 import Pose
from repro.plugins.audio import AudioEncodingPlugin, AudioPlaybackPlugin
from repro.plugins.perception import CameraPlugin, ImuPlugin, IntegratorPlugin, VioPlugin
from repro.plugins.visual import ApplicationPlugin, SubmittedFrame, TimewarpPlugin
from repro.sensors.camera import LandmarkField, StereoCamera
from repro.sensors.imu import ImuModel
from repro.sensors.trajectory import lab_walk_trajectory
from repro.visual.scenes import scene_by_name


@pytest.fixture
def wiring():
    config = SystemConfig(duration_s=5.0, fidelity="full", seed=0)
    trajectory = lab_walk_trajectory(duration=7.0, seed=0)
    switchboard = Switchboard()
    phonebook = Phonebook()
    return config, trajectory, switchboard, phonebook


def _ctx(now, index=0, event=None):
    return InvocationContext(now=now, index=index, trigger_event=event)


def test_camera_plugin_publishes_frames(wiring):
    config, trajectory, switchboard, phonebook = wiring
    camera = StereoCamera(landmarks=LandmarkField(seed=1), seed=2)
    plugin = CameraPlugin(config, camera, trajectory)
    plugin.setup(phonebook, switchboard)
    result = plugin.iteration(_ctx(0.5))
    assert result.outputs[0].topic == "camera"
    assert result.outputs[0].data.feature_count > 0
    assert result.outputs[0].data_time == 0.5


def test_imu_plugin_publishes_samples(wiring):
    config, trajectory, switchboard, phonebook = wiring
    plugin = ImuPlugin(config, ImuModel(trajectory, seed=1))
    plugin.setup(phonebook, switchboard)
    result = plugin.iteration(_ctx(0.25))
    sample = result.outputs[0].data
    assert sample.timestamp == 0.25
    assert np.linalg.norm(sample.accel) > 5.0  # gravity present


def test_vio_plugin_processes_camera_event(wiring):
    config, trajectory, switchboard, phonebook = wiring
    camera = StereoCamera(landmarks=LandmarkField(seed=1), seed=2)
    vio = VioPlugin(config, camera, trajectory)
    vio.setup(phonebook, switchboard)
    imu_plugin = ImuPlugin(config, ImuModel(trajectory, seed=1))
    imu_plugin.setup(phonebook, switchboard)
    # Feed IMU samples to the switchboard so VIO can drain them.
    for i in range(1, 34):
        t = i * 0.002
        result = imu_plugin.iteration(_ctx(t))
        switchboard.topic("imu").put(t, result.outputs[0].data, data_time=t)
    truth = trajectory.sample(1 / 15)
    frame = camera.observe(Pose(truth.position, truth.orientation, timestamp=1 / 15), 1 / 15)
    event = StampedEvent(publish_time=1 / 15 + 0.001, data=frame, data_time=1 / 15)
    result = vio.iteration(_ctx(1 / 15 + 0.001, event=event))
    estimate = result.outputs[0].data
    assert estimate.timestamp == pytest.approx(1 / 15)
    assert result.outputs[0].data_time == pytest.approx(1 / 15)
    assert 0.4 <= result.complexity <= 2.0


def test_vio_plugin_skips_empty_event(wiring):
    config, trajectory, switchboard, phonebook = wiring
    camera = StereoCamera(landmarks=LandmarkField(seed=1), seed=2)
    vio = VioPlugin(config, camera, trajectory)
    vio.setup(phonebook, switchboard)
    event = StampedEvent(publish_time=0.0, data=None)
    assert vio.iteration(_ctx(0.0, event=event)).skipped


def test_integrator_plugin_anchors_and_propagates(wiring):
    config, trajectory, switchboard, phonebook = wiring
    integrator = IntegratorPlugin(config, trajectory)
    integrator.setup(phonebook, switchboard)
    imu = ImuModel(trajectory, seed=3)

    # No VIO estimate yet: must skip.
    sample = imu.sample_at(0.002)
    event = StampedEvent(publish_time=0.002, data=sample, data_time=0.002)
    assert integrator.iteration(_ctx(0.002, event=event)).skipped

    # Publish a VIO anchor, then integrate.
    from repro.perception.vio.msckf import VioEstimate

    truth = trajectory.sample(0.002)
    anchor = VioEstimate(
        timestamp=0.002,
        pose=Pose(truth.position, truth.orientation, timestamp=0.002),
        velocity=truth.velocity,
        gyro_bias=np.zeros(3),
        accel_bias=np.zeros(3),
        position_sigma=0.01,
        tracked_features=20,
        slam_landmarks=4,
    )
    switchboard.topic("slow_pose").put(0.004, anchor, data_time=0.002)
    poses = []
    for i in range(2, 102):
        t = i * 0.002
        sample = imu.sample_at(t)
        event = StampedEvent(publish_time=t, data=sample, data_time=t)
        result = integrator.iteration(_ctx(t, index=i, event=event))
        if not result.skipped:
            poses.append(result.outputs[0].data)
    assert len(poses) > 90
    final_truth = trajectory.sample(poses[-1].timestamp)
    assert np.linalg.norm(poses[-1].position - final_truth.position) < 0.05


def test_application_plugin_submits_frames(wiring):
    config, trajectory, switchboard, phonebook = wiring
    app = ApplicationPlugin(config, scene_by_name("platformer"))
    app.setup(phonebook, switchboard)
    # No pose yet: skip.
    assert app.iteration(_ctx(0.0)).skipped
    pose = Pose(np.array([0.0, 0.0, 1.7]), timestamp=0.01)
    switchboard.topic("fast_pose").put(0.01, pose, data_time=0.01)
    result = app.iteration(_ctx(0.02))
    frame = result.outputs[0].data
    assert isinstance(frame, SubmittedFrame)
    assert frame.pose is pose
    assert 0.5 <= result.complexity <= 2.0


def test_timewarp_plugin_records_mtp(wiring):
    from repro.core.records import InvocationRecord

    config, trajectory, switchboard, phonebook = wiring
    timewarp = TimewarpPlugin(config, lead=0.004)
    timewarp.setup(phonebook, switchboard)
    # Needs both a pose and a frame.
    assert timewarp.iteration(_ctx(0.0)).skipped
    pose = Pose(np.array([0.0, 0.0, 1.7]), timestamp=0.009)
    switchboard.topic("fast_pose").put(0.010, pose, data_time=0.009)
    switchboard.topic("frame").put(
        0.011, SubmittedFrame(pose=pose, render_start=0.005, complexity=1.0), data_time=0.009
    )
    result = timewarp.iteration(_ctx(0.012))
    assert not result.skipped
    timewarp.on_complete(
        InvocationRecord(
            "timewarp", "timewarp", "visual", 0,
            scheduled_at=0.012, start=0.012, end=0.014,
            cpu_time=0.001, gpu_time=0.001, deadline=0.004, missed_deadline=False,
        ),
        swap_time=1 / 60,
    )
    assert len(timewarp.mtp_samples) == 1
    sample = timewarp.mtp_samples[0]
    assert sample.imu_age == pytest.approx(0.012 - 0.009)
    assert sample.reprojection_time == pytest.approx(0.002)
    assert sample.swap_wait == pytest.approx(1 / 60 - 0.014)
    assert len(timewarp.display_events) == 1


def test_audio_plugins_roundtrip(wiring):
    config, trajectory, switchboard, phonebook = wiring
    encoder = AudioEncodingPlugin(config)
    playback = AudioPlaybackPlugin(config)
    encoder.setup(phonebook, switchboard)
    playback.setup(phonebook, switchboard)
    # Playback skips with no soundfield.
    assert playback.iteration(_ctx(0.0)).skipped
    enc_result = encoder.iteration(_ctx(0.0))
    soundfield = enc_result.outputs[0].data
    assert soundfield.shape == (16, config.audio_block_size)
    switchboard.topic("soundfield").put(0.001, soundfield, data_time=0.0)
    pb_result = playback.iteration(_ctx(0.002))
    block = pb_result.outputs[0].data
    assert block.rms > 0
    assert playback.blocks_rendered == 1


def test_model_fidelity_publishes_placeholders(wiring):
    _config, trajectory, switchboard, phonebook = wiring
    config = SystemConfig(duration_s=5.0, fidelity="model", seed=0)
    camera = CameraPlugin(config, StereoCamera(landmarks=LandmarkField(seed=1)), trajectory)
    camera.setup(phonebook, switchboard)
    result = camera.iteration(_ctx(0.5))
    assert result.outputs[0].data is None  # cost-only mode
