"""Unit tests for the sensor substrate: trajectory, IMU, cameras, eye."""

import numpy as np
import pytest

from repro.maths.quaternion import quat_rotate
from repro.maths.se3 import Pose
from repro.sensors.camera import (
    CameraIntrinsics,
    LandmarkField,
    StereoCamera,
    ZED_MINI_BASELINE_M,
)
from repro.sensors.depth import BoxObject, DepthCamera, DepthScene, SphereObject
from repro.sensors.eye import EyeImageGenerator
from repro.sensors.imu import GRAVITY_W, ImuModel, ImuSample
from repro.sensors.trajectory import lab_walk_trajectory, vicon_room_trajectory


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def test_lab_walk_stays_in_room():
    trajectory = lab_walk_trajectory(duration=20.0, seed=0, room_half_extent=3.0)
    for t in np.linspace(0, 20, 80):
        position = trajectory.sample(t).position
        assert np.all(np.abs(position[:2]) <= 3.0 + 0.6)  # slight spline overshoot ok
        assert 1.3 <= position[2] <= 2.1


def test_lab_walk_speed_is_walking_pace():
    trajectory = lab_walk_trajectory(duration=20.0, seed=1)
    speeds = [np.linalg.norm(trajectory.sample(t).velocity) for t in np.linspace(1, 19, 50)]
    assert 0.05 < np.mean(speeds) < 2.5


def test_trajectories_deterministic_per_seed():
    a = lab_walk_trajectory(duration=10.0, seed=5).sample(3.0)
    b = lab_walk_trajectory(duration=10.0, seed=5).sample(3.0)
    c = lab_walk_trajectory(duration=10.0, seed=6).sample(3.0)
    assert np.allclose(a.position, b.position)
    assert not np.allclose(a.position, c.position)


def test_vicon_room_covers_more_ground():
    trajectory = vicon_room_trajectory(duration=20.0, seed=1)
    speeds = [np.linalg.norm(trajectory.sample(t).velocity) for t in np.linspace(1, 19, 50)]
    assert np.max(speeds) > 0.8


def test_trajectory_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        lab_walk_trajectory(duration=0.0)
    with pytest.raises(ValueError):
        vicon_room_trajectory(duration=-1.0)


# ---------------------------------------------------------------------------
# IMU
# ---------------------------------------------------------------------------


def _static_trajectory():
    """A trajectory that barely moves (for gravity checks)."""
    from repro.maths.splines import TrajectorySpline

    times = np.linspace(0.0, 10.0, 8)
    positions = np.tile([0.0, 0.0, 1.7], (8, 1)) + 1e-9 * np.random.default_rng(0).normal(size=(8, 3))
    eulers = np.zeros((8, 3))
    return TrajectorySpline(times, positions, eulers)


def test_imu_measures_gravity_at_rest():
    imu = ImuModel(_static_trajectory(), rate_hz=500.0, seed=0)
    samples = imu.sequence(1.0, 3.0)
    mean_accel = np.mean([s.accel for s in samples], axis=0)
    # Specific force at rest = -g in body frame = +9.81 up (plus bias).
    assert mean_accel[2] == pytest.approx(9.81, abs=0.15)
    assert np.all(np.abs(mean_accel[:2]) < 0.15)


def test_imu_gyro_zero_mean_at_rest():
    imu = ImuModel(_static_trajectory(), rate_hz=500.0, seed=1)
    samples = imu.sequence(0.0, 3.0)
    mean_gyro = np.mean([s.gyro for s in samples], axis=0)
    assert np.all(np.abs(mean_gyro) < 0.02)  # bias-dominated, small


def test_imu_sample_rate_and_timestamps():
    cases = [
        (200.0, 1.0, 200),
        # np.arange(0, 16.1, 1/500) ends on 16.1 itself; [t_start, t_end) drops it.
        (500.0, 16.1, 8050),
    ]
    for rate_hz, t_end, count in cases:
        imu = ImuModel(_static_trajectory(), rate_hz=rate_hz, seed=0)
        samples = imu.sequence(0.0, t_end)
        assert len(samples) == count
        timestamps = [s.timestamp for s in samples]
        assert timestamps[-1] < t_end
        assert np.allclose(np.diff(timestamps), 1 / rate_hz)


def test_imu_noise_scales_with_density():
    from repro.sensors.imu import ImuNoise

    quiet = ImuModel(_static_trajectory(), seed=2, noise=ImuNoise(gyro_noise_density=1e-5))
    loud = ImuModel(_static_trajectory(), seed=2, noise=ImuNoise(gyro_noise_density=1e-3))
    std_quiet = np.std([s.gyro[0] for s in quiet.sequence(0, 1)])
    std_loud = np.std([s.gyro[0] for s in loud.sequence(0, 1)])
    assert std_loud > 10 * std_quiet


def test_imu_rejects_bad_rate_and_window():
    with pytest.raises(ValueError):
        ImuModel(_static_trajectory(), rate_hz=0.0)
    imu = ImuModel(_static_trajectory())
    with pytest.raises(ValueError):
        imu.sequence(2.0, 1.0)


def test_gravity_constant():
    assert GRAVITY_W[2] == -9.81


# ---------------------------------------------------------------------------
# Stereo camera
# ---------------------------------------------------------------------------


def test_intrinsics_project_center_point():
    intr = CameraIntrinsics()
    pixels, valid = intr.project(np.array([[0.0, 0.0, 2.0]]))
    assert valid[0]
    assert pixels[0] == pytest.approx([intr.cx, intr.cy])


def test_intrinsics_rejects_points_behind():
    intr = CameraIntrinsics()
    _pixels, valid = intr.project(np.array([[0.0, 0.0, -1.0]]))
    assert not valid[0]


def test_back_project_inverts_project():
    intr = CameraIntrinsics()
    point = np.array([[0.4, -0.2, 3.0]])
    pixels, valid = intr.project(point)
    assert valid[0]
    ray = intr.back_project(pixels[0])
    assert np.allclose(ray * 3.0, point[0], atol=1e-9)


def test_landmark_field_on_room_shell():
    field = LandmarkField(count=100, room_half_extent=4.0, room_height=3.0, seed=0)
    points = field.points
    on_wall = np.isclose(np.abs(points[:, 0]), 4.0) | np.isclose(np.abs(points[:, 1]), 4.0)
    on_ceiling = np.isclose(points[:, 2], 3.0)
    assert np.all(on_wall | on_ceiling)


def test_landmark_field_minimum_count():
    with pytest.raises(ValueError):
        LandmarkField(count=4)


def _camera(**kwargs):
    return StereoCamera(landmarks=LandmarkField(seed=3), seed=4, **kwargs)


def test_observation_disparity_sign():
    """The right eye sees every landmark at a smaller u (camera x shifts)."""
    camera = _camera()
    camera._rng = np.random.default_rng(0)
    frame = camera.observe(Pose(np.array([0.0, 0.0, 1.7])), timestamp=0.0)
    assert frame.feature_count > 10
    for u_l, _v_l, u_r, _v_r in frame.observations.values():
        assert u_l - u_r > -3 * camera.pixel_noise  # disparity >= 0 up to noise


def test_observation_matches_projection_of_known_landmark():
    camera = _camera(pixel_noise_at_1ms=1e-9)
    pose = Pose(np.array([0.0, 0.0, 1.7]))
    frame = camera.observe(pose, timestamp=0.0)
    feature_id, (u_l, v_l, _ur, _vr) = next(iter(frame.observations.items()))
    landmark = camera.landmark_position(feature_id)
    cam_pt = camera.world_to_camera(pose)[feature_id]
    expected_u = camera.intrinsics.fx * cam_pt[0] / cam_pt[2] + camera.intrinsics.cx
    expected_v = camera.intrinsics.fy * cam_pt[1] / cam_pt[2] + camera.intrinsics.cy
    assert (u_l, v_l) == pytest.approx((expected_u, expected_v), abs=1e-6)
    assert landmark is not None


def test_feature_budget_enforced():
    camera = _camera(max_features=12)
    frame = camera.observe(Pose(np.array([0.0, 0.0, 1.7])), timestamp=0.0)
    assert frame.feature_count <= 12


def test_exposure_noise_tradeoff():
    short = _camera(exposure_ms=0.25)
    long = _camera(exposure_ms=4.0)
    assert short.pixel_noise > long.pixel_noise
    assert short.sensor_power_w() < long.sensor_power_w()


def test_exposure_out_of_range():
    with pytest.raises(ValueError):
        _camera(exposure_ms=0.05)


def test_zed_baseline_constant():
    assert ZED_MINI_BASELINE_M == pytest.approx(0.063)


def test_landmark_position_out_of_range_is_none():
    camera = _camera()
    assert camera.landmark_position(10**6) is None


# ---------------------------------------------------------------------------
# Depth camera
# ---------------------------------------------------------------------------


def test_depth_camera_sees_room_walls():
    camera = DepthCamera(DepthScene(), width=32, height=24, noise_std=0.0)
    depth = camera.render(Pose(np.array([0.0, 0.0, 1.4])), noisy=False)
    assert depth.shape == (24, 32)
    valid = depth[depth > 0]
    assert len(valid) > 0.9 * depth.size
    assert np.all(valid < 10.0)


def test_depth_camera_sphere_closer_than_wall():
    scene = DepthScene(spheres=[SphereObject(center=np.array([1.5, 0.0, 1.4]), radius=0.4)])
    camera = DepthCamera(scene, width=32, height=24, noise_std=0.0)
    # Looking along +x from origin: sphere at 1.1 m, wall at 3.5 m.
    depth = camera.render(Pose(np.array([0.0, 0.0, 1.4])), noisy=False)
    center = depth[12, 16]
    assert center == pytest.approx(1.1, abs=0.05)


def test_depth_camera_box_intersection():
    scene = DepthScene(boxes=[BoxObject(minimum=np.array([1.0, -0.5, 0.8]),
                                        maximum=np.array([1.6, 0.5, 2.0]))])
    camera = DepthCamera(scene, width=32, height=24, noise_std=0.0)
    depth = camera.render(Pose(np.array([0.0, 0.0, 1.4])), noisy=False)
    assert depth[12, 16] == pytest.approx(1.0, abs=0.05)


def test_depth_noise_applied_when_requested():
    camera = DepthCamera(DepthScene.default(), width=32, height=24, noise_std=0.02)
    pose = Pose(np.array([0.0, 0.0, 1.4]))
    clean = camera.render(pose, noisy=False)
    noisy = camera.render(pose, noisy=True)
    assert not np.allclose(clean, noisy)


def test_depth_camera_rejects_tiny_images():
    with pytest.raises(ValueError):
        DepthCamera(DepthScene(), width=2, height=2)


# ---------------------------------------------------------------------------
# Eye images
# ---------------------------------------------------------------------------


def test_eye_sample_shapes_and_ranges():
    generator = EyeImageGenerator(seed=0)
    sample = generator.sample()
    assert sample.image.shape == (48, 64)
    assert sample.mask.shape == (48, 64)
    assert 0.0 <= sample.image.min() and sample.image.max() <= 1.0
    assert np.all(np.abs(sample.gaze) <= 1.0)


def test_eye_pupil_darker_than_sclera():
    generator = EyeImageGenerator(seed=1, noise_std=0.0)
    sample = generator.sample(gaze=(0.0, 0.0))
    pupil_mean = sample.image[sample.mask].mean()
    outside_mean = sample.image[~sample.mask].mean()
    assert pupil_mean < outside_mean - 0.2


def test_eye_gaze_moves_pupil():
    generator = EyeImageGenerator(seed=2, noise_std=0.0)
    left = generator.sample(gaze=(-0.8, 0.0))
    right = generator.sample(gaze=(0.8, 0.0))
    left_cx = np.nonzero(left.mask)[1].mean()
    right_cx = np.nonzero(right.mask)[1].mean()
    assert right_cx - left_cx > 10


def test_eye_gaze_out_of_range():
    with pytest.raises(ValueError):
        EyeImageGenerator(seed=0).sample(gaze=(2.0, 0.0))


def test_eye_batch():
    samples = EyeImageGenerator(seed=3).batch(5)
    assert len(samples) == 5
    with pytest.raises(ValueError):
        EyeImageGenerator(seed=3).batch(0)


# ---------------------------------------------------------------------------
# ImuSample dataclass
# ---------------------------------------------------------------------------


def test_imu_sample_coerces_arrays():
    sample = ImuSample(timestamp=1.0, gyro=[0.1, 0.2, 0.3], accel=[1.0, 2.0, 3.0])
    assert isinstance(sample.gyro, np.ndarray)
    assert quat_rotate(np.array([1.0, 0, 0, 0]), sample.accel) == pytest.approx([1.0, 2.0, 3.0])
