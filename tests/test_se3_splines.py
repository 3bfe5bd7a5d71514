"""Unit + property tests for SO(3)/SE(3) utilities and trajectory splines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maths.quaternion import quat_from_axis_angle
from repro.maths.se3 import Pose, skew, so3_exp, so3_log
from repro.maths.splines import (
    TrajectorySpline,
    euler_rates_to_body_omega,
    euler_zyx_to_quat,
)

# exp/log roundtrips only hold inside the principal ball |phi| < pi.
rotvecs = st.tuples(
    st.floats(-1.7, 1.7, allow_nan=False),
    st.floats(-1.7, 1.7, allow_nan=False),
    st.floats(-1.7, 1.7, allow_nan=False),
).map(np.array).filter(lambda v: np.linalg.norm(v) < np.pi - 0.05)


# ---------------------------------------------------------------------------
# skew / exp / log
# ---------------------------------------------------------------------------


def test_skew_realizes_cross_product():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([-0.5, 0.7, 0.2])
    assert np.allclose(skew(a) @ b, np.cross(a, b))


def test_skew_is_antisymmetric():
    m = skew(np.array([0.3, -0.2, 0.9]))
    assert np.allclose(m, -m.T)


@settings(max_examples=60)
@given(rotvecs)
def test_so3_exp_log_roundtrip(phi):
    assert np.allclose(so3_log(so3_exp(phi)), phi, atol=1e-6)


def test_so3_exp_zero_is_identity():
    assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))


def test_so3_log_near_pi():
    phi = np.array([0.0, 0.0, np.pi - 1e-8])
    recovered = so3_log(so3_exp(phi))
    assert np.linalg.norm(recovered) == pytest.approx(np.pi - 1e-8, abs=1e-5)
    assert abs(abs(recovered[2]) - (np.pi - 1e-8)) < 1e-5


@settings(max_examples=40)
@given(rotvecs)
def test_so3_exp_is_rotation(phi):
    r = so3_exp(phi)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-10)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Pose
# ---------------------------------------------------------------------------


def test_pose_transform_roundtrip():
    pose = Pose(np.array([1.0, -2.0, 0.5]), quat_from_axis_angle(np.array([0, 0, 1.0]), 0.8))
    point = np.array([0.3, 0.4, 0.5])
    world = pose.transform_point(point)
    assert np.allclose(pose.inverse_transform_point(world), point, atol=1e-12)


def test_pose_compose_and_relative_inverse():
    a = Pose(np.array([1.0, 0.0, 0.0]), quat_from_axis_angle(np.array([0, 0, 1.0]), 0.5))
    b = Pose(np.array([0.0, 2.0, 0.0]), quat_from_axis_angle(np.array([1.0, 0, 0]), -0.3))
    composed = a.compose(b)
    recovered = composed.relative_to(a)
    assert recovered.translation_error(b) < 1e-12
    assert recovered.rotation_error(b) < 1e-12


def test_pose_errors():
    a = Pose(np.zeros(3))
    b = Pose(np.array([3.0, 4.0, 0.0]), quat_from_axis_angle(np.array([0, 0, 1.0]), 0.2))
    assert a.translation_error(b) == pytest.approx(5.0)
    assert a.rotation_error(b) == pytest.approx(0.2, abs=1e-9)


def test_pose_normalizes_orientation():
    pose = Pose(np.zeros(3), np.array([2.0, 0.0, 0.0, 0.0]))
    assert np.allclose(pose.orientation, [1.0, 0.0, 0.0, 0.0])


def test_pose_rejects_bad_position_shape():
    with pytest.raises(ValueError):
        Pose(np.zeros(2))


# ---------------------------------------------------------------------------
# Euler conversions
# ---------------------------------------------------------------------------


def test_euler_zyx_pure_yaw():
    q = euler_zyx_to_quat(np.pi / 2, 0.0, 0.0)
    expected = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    assert np.allclose(q, expected, atol=1e-12)


def test_euler_rates_pure_roll():
    omega = euler_rates_to_body_omega(0.0, 0.0, 0.0, 0.0, 0.0, 2.0)
    assert np.allclose(omega, [2.0, 0.0, 0.0])


def test_euler_rates_pure_yaw_at_zero_attitude():
    omega = euler_rates_to_body_omega(0.3, 0.0, 0.0, 1.5, 0.0, 0.0)
    assert np.allclose(omega, [0.0, 0.0, 1.5])


# ---------------------------------------------------------------------------
# TrajectorySpline
# ---------------------------------------------------------------------------


def _spline():
    times = np.linspace(0.0, 4.0, 9)
    positions = np.column_stack(
        [np.sin(times), np.cos(times), 1.5 + 0.1 * times]
    )
    eulers = np.column_stack(
        [0.3 * times, 0.1 * np.sin(times), 0.05 * np.cos(times)]
    )
    return TrajectorySpline(times, positions, eulers)


def test_spline_velocity_matches_finite_difference():
    spline = _spline()
    t, h = 1.7, 1e-5
    numeric = (spline.sample(t + h).position - spline.sample(t - h).position) / (2 * h)
    assert np.allclose(spline.sample(t).velocity, numeric, atol=1e-5)


def test_spline_acceleration_matches_finite_difference():
    spline = _spline()
    t, h = 2.3, 1e-4
    numeric = (spline.sample(t + h).velocity - spline.sample(t - h).velocity) / (2 * h)
    assert np.allclose(spline.sample(t).acceleration, numeric, atol=1e-4)


def test_spline_omega_consistent_with_orientation_derivative():
    from repro.maths.quaternion import quat_conjugate, quat_log, quat_multiply

    spline = _spline()
    t, h = 1.1, 1e-5
    q0 = spline.sample(t - h).orientation
    q1 = spline.sample(t + h).orientation
    omega_numeric = quat_log(quat_multiply(quat_conjugate(q0), q1)) / (2 * h)
    assert np.allclose(spline.sample(t).omega_body, omega_numeric, atol=1e-4)


def test_spline_clamps_outside_domain():
    spline = _spline()
    before = spline.sample(-1.0)
    start = spline.sample(0.0)
    assert np.allclose(before.position, start.position)


def test_spline_rejects_bad_inputs():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    good_pos = np.zeros((4, 3))
    good_eul = np.zeros((4, 3))
    with pytest.raises(ValueError):
        TrajectorySpline(times[:3], good_pos[:3], good_eul[:3])
    with pytest.raises(ValueError):
        TrajectorySpline(times[::-1], good_pos, good_eul)
    with pytest.raises(ValueError):
        TrajectorySpline(times, good_pos[:, :2], good_eul)
    near_gimbal = good_eul.copy()
    near_gimbal[:, 1] = np.pi / 2
    with pytest.raises(ValueError):
        TrajectorySpline(times, good_pos, near_gimbal)
    # scipy's CubicSpline rejected these; the numpy fit keeps rejecting them.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            TrajectorySpline(np.array([0.0, 1.0, bad, 3.0]), good_pos, good_eul)
        with pytest.raises(ValueError, match="finite"):
            TrajectorySpline(times, np.where(np.eye(4, 3) > 0, bad, 0.0), good_eul)


def test_spline_duration():
    assert _spline().duration == pytest.approx(4.0)
