"""Unit tests for VIO building blocks: triangulation, Jacobians,
nullspace projection, gating, the EKF update, and propagation."""

import numpy as np
import pytest

from repro.maths.quaternion import quat_from_axis_angle, quat_identity
from repro.maths.se3 import R_CAM_BODY
from repro.perception.vio.state import IMU_DIM, VioState
from repro.perception.vio.tracker import Track
from repro.perception.vio.triangulation import CloneObservation, triangulate
from repro.perception.vio.update import (
    chi2_gate,
    chi2_threshold,
    compress_measurements,
    ekf_update,
    feature_jacobians,
    nullspace_project,
)
from repro.perception.vio import propagation
from repro.sensors.camera import CameraIntrinsics
from repro.sensors.imu import ImuNoise, ImuSample

BASELINE = 0.063


def _project(intr, orientation, position, point, eye_offset):
    from repro.maths.quaternion import quat_to_matrix

    r_wb = quat_to_matrix(orientation)
    cam = R_CAM_BODY @ (r_wb.T @ (point - position))
    cam[0] -= eye_offset
    return np.array(
        [intr.fx * cam[0] / cam[2] + intr.cx, intr.fy * cam[1] / cam[2] + intr.cy]
    )


def _stereo_obs(intr, orientation, position, point):
    return (
        _project(intr, orientation, position, point, 0.0),
        _project(intr, orientation, position, point, BASELINE),
    )


def test_triangulation_exact_with_perfect_pixels():
    intr = CameraIntrinsics()
    point = np.array([3.0, 0.5, 1.8])
    observations = []
    for x in (0.0, 0.3, 0.6):
        orientation = quat_identity()
        position = np.array([x, 0.0, 1.5])
        uv_l, uv_r = _stereo_obs(intr, orientation, position, point)
        observations.append(CloneObservation(orientation, position, uv_l, uv_r))
    result = triangulate(observations, intr, BASELINE)
    assert result is not None
    assert np.allclose(result.position, point, atol=1e-6)
    assert result.mean_reprojection_px < 1e-6


def test_triangulation_single_stereo_observation():
    intr = CameraIntrinsics()
    point = np.array([2.0, -0.4, 1.2])
    orientation = quat_identity()
    position = np.array([0.0, 0.0, 1.5])
    uv_l, uv_r = _stereo_obs(intr, orientation, position, point)
    result = triangulate(
        [CloneObservation(orientation, position, uv_l, uv_r)], intr, BASELINE
    )
    assert result is not None
    assert np.allclose(result.position, point, atol=1e-4)


def test_triangulation_rejects_point_behind_camera():
    intr = CameraIntrinsics()
    obs = CloneObservation(
        quat_identity(), np.array([0.0, 0.0, 1.5]), np.array([320.0, 240.0]), np.array([310.0, 240.0])
    )
    # Feed an observation of a point that triangulates behind the camera
    # by flipping the disparity sign.
    flipped = CloneObservation(obs.orientation, obs.position, obs.uv_right, obs.uv_left)
    result = triangulate([flipped], intr, BASELINE)
    assert result is None or result.mean_reprojection_px > 1.0


def test_triangulation_empty_returns_none():
    assert triangulate([], CameraIntrinsics(), BASELINE) is None


def _state_with_clones(positions):
    state = VioState(
        timestamp=0.0,
        orientation=quat_identity(),
        position=np.zeros(3),
        velocity=np.zeros(3),
    )
    clones = []
    for position in positions:
        state.position = np.asarray(position, dtype=float)
        clones.append(state.augment_clone())
    return state, clones


def test_feature_jacobians_zero_residual_at_truth():
    intr = CameraIntrinsics()
    point = np.array([3.0, 0.2, 1.5])
    state, clones = _state_with_clones([[0.0, 0.0, 1.5], [0.2, 0.0, 1.5]])
    track = Track(feature_id=0)
    for clone in clones:
        uv_l, uv_r = _stereo_obs(intr, clone.orientation, clone.position, point)
        track.add(clone.clone_id, uv_l, uv_r)
    jac = feature_jacobians(state, track, point, intr, BASELINE)
    assert jac is not None
    residual, h_x, h_f = jac
    assert residual.shape == (8,)
    assert h_x.shape == (8, state.dim)
    assert h_f.shape == (8, 3)
    assert np.allclose(residual, 0.0, atol=1e-9)


def test_feature_jacobians_match_numeric_differentiation():
    intr = CameraIntrinsics()
    point = np.array([2.5, -0.3, 1.8])
    state, clones = _state_with_clones([[0.0, 0.1, 1.5]])
    clone = clones[0]
    track = Track(feature_id=0)
    uv_l, uv_r = _stereo_obs(intr, clone.orientation, clone.position, point)
    track.add(clone.clone_id, uv_l, uv_r)
    _, h_x, h_f = feature_jacobians(state, track, point, intr, BASELINE)

    eps = 1e-6
    offset = state.clone_offset(clone.clone_id)

    def measurement_at(dtheta, dpos, dfeat):
        # h(x): the predicted stereo pixels (H differentiates h, not the
        # residual r = z - h).
        from repro.maths.quaternion import quat_exp, quat_multiply

        q = quat_multiply(clone.orientation, quat_exp(dtheta))
        p = clone.position + dpos
        f = point + dfeat
        rows = []
        for eye in (0.0, BASELINE):
            rows.extend(_project(intr, q, p, f, eye))
        return np.asarray(rows)

    base = measurement_at(np.zeros(3), np.zeros(3), np.zeros(3))
    for axis in range(3):
        delta = np.zeros(3)
        delta[axis] = eps
        numeric_theta = (measurement_at(delta, np.zeros(3), np.zeros(3)) - base) / eps
        numeric_pos = (measurement_at(np.zeros(3), delta, np.zeros(3)) - base) / eps
        numeric_feat = (measurement_at(np.zeros(3), np.zeros(3), delta) - base) / eps
        assert np.allclose(h_x[:, offset + axis], numeric_theta, atol=1e-3)
        assert np.allclose(h_x[:, offset + 3 + axis], numeric_pos, atol=1e-3)
        assert np.allclose(h_f[:, axis], numeric_feat, atol=1e-3)


def test_feature_jacobians_none_when_no_clone_in_window():
    intr = CameraIntrinsics()
    state, _clones = _state_with_clones([[0.0, 0.0, 1.5]])
    track = Track(feature_id=0)
    track.add(999, np.array([320.0, 240.0]), np.array([310.0, 240.0]))
    assert feature_jacobians(state, track, np.ones(3), intr, BASELINE) is None


def test_nullspace_projection_annihilates_feature_jacobian():
    rng = np.random.default_rng(0)
    residual = rng.normal(size=8)
    h_x = rng.normal(size=(8, 20))
    h_f = rng.normal(size=(8, 3))
    projected = nullspace_project(residual, h_x, h_f)
    assert projected is not None
    r0, h0 = projected
    assert r0.shape == (5,)
    assert h0.shape == (5, 20)
    # Verify: the projector rows are orthogonal to the columns of h_f.
    q_full, _ = np.linalg.qr(h_f, mode="complete")
    nullspace = q_full[:, 3:]
    assert np.allclose(nullspace.T @ h_f, 0.0, atol=1e-10)


def test_nullspace_projection_needs_enough_rows():
    assert nullspace_project(np.zeros(3), np.zeros((3, 5)), np.zeros((3, 3))) is None


def test_chi2_threshold_monotone_in_dof():
    assert chi2_threshold(2) < chi2_threshold(10)
    with pytest.raises(ValueError):
        chi2_threshold(0)


def test_chi2_gate_accepts_consistent_and_rejects_gross():
    dim = 10
    covariance = 0.01 * np.eye(dim)
    h = np.zeros((2, dim))
    h[:, 0:2] = np.eye(2)
    small = np.array([0.05, -0.02])
    huge = np.array([50.0, 50.0])
    assert chi2_gate(small, h, covariance, pixel_sigma=1.0)
    assert not chi2_gate(huge, h, covariance, pixel_sigma=1.0)


def test_measurement_compression_preserves_information():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(40, 6))
    r = rng.normal(size=40)
    r2, h2 = compress_measurements(r, h)
    assert h2.shape == (6, 6)
    # The normal equations are identical.
    assert np.allclose(h2.T @ h2, h.T @ h, atol=1e-9)
    assert np.allclose(h2.T @ r2, h.T @ r, atol=1e-9)


def test_compression_noop_when_thin():
    h = np.zeros((4, 6))
    r = np.zeros(4)
    r2, h2 = compress_measurements(r, h)
    assert h2 is h and r2 is r


def test_ekf_update_moves_mean_toward_measurement():
    state = VioState(
        timestamp=0.0,
        orientation=quat_identity(),
        position=np.zeros(3),
        velocity=np.zeros(3),
    )
    state.covariance = np.eye(state.dim) * 0.1
    h = np.zeros((1, state.dim))
    h[0, 3] = 1.0  # direct observation of position x
    residual = np.array([1.0])  # measured - predicted
    ekf_update(state, residual, h, pixel_sigma=0.1)
    assert 0.8 < state.position[0] <= 1.0
    # Variance of the observed dimension shrinks.
    assert state.covariance[3, 3] < 0.1


def test_ekf_update_shape_mismatch_rejected():
    state = VioState(
        timestamp=0.0,
        orientation=quat_identity(),
        position=np.zeros(3),
        velocity=np.zeros(3),
    )
    with pytest.raises(ValueError):
        ekf_update(state, np.zeros(2), np.zeros((2, 3)), pixel_sigma=1.0)


def test_propagation_grows_uncertainty():
    state = VioState(
        timestamp=0.0,
        orientation=quat_identity(),
        position=np.zeros(3),
        velocity=np.zeros(3),
    )
    trace_before = np.trace(state.covariance)
    for i in range(1, 51):
        propagation.propagate(
            state,
            ImuSample(timestamp=i * 0.002, gyro=np.zeros(3), accel=np.array([0.0, 0.0, 9.81])),
            ImuNoise(),
        )
    assert np.trace(state.covariance) > trace_before
    assert state.timestamp == pytest.approx(0.1)


def test_propagation_rejects_time_reversal():
    state = VioState(
        timestamp=1.0,
        orientation=quat_identity(),
        position=np.zeros(3),
        velocity=np.zeros(3),
    )
    with pytest.raises(ValueError):
        propagation.propagate(
            state,
            ImuSample(timestamp=0.5, gyro=np.zeros(3), accel=np.zeros(3)),
            ImuNoise(),
        )


def test_propagation_keeps_clone_cross_covariance_consistent():
    state = VioState(
        timestamp=0.0,
        orientation=quat_identity(),
        position=np.zeros(3),
        velocity=np.zeros(3),
    )
    state.augment_clone()
    propagation.propagate(
        state,
        ImuSample(timestamp=0.002, gyro=np.zeros(3), accel=np.array([0.0, 0.0, 9.81])),
        ImuNoise(),
    )
    # Covariance stays symmetric and the clone block is untouched by Qd.
    assert np.allclose(state.covariance, state.covariance.T)
    clone_block = state.covariance[IMU_DIM:, IMU_DIM:]
    assert np.allclose(clone_block[:3, :3], 1e-4 * np.eye(3), atol=1e-8)
