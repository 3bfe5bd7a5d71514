"""Unit + property tests for quaternion algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maths.quaternion import (
    matrix_to_quat,
    quat_angle_between,
    quat_conjugate,
    quat_exp,
    quat_from_axis_angle,
    quat_identity,
    quat_log,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_slerp,
    quat_to_matrix,
)

unit_quats = st.builds(
    lambda v, w: quat_normalize(np.array([w, v[0], v[1], v[2]])),
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ),
    st.floats(-1, 1, allow_nan=False).filter(lambda w: abs(w) > 1e-3),
)

vectors = st.tuples(
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
).map(np.array)

# exp/log roundtrips only hold inside the principal ball |phi| < pi.
rotvecs = st.tuples(
    st.floats(-1.7, 1.7, allow_nan=False),
    st.floats(-1.7, 1.7, allow_nan=False),
    st.floats(-1.7, 1.7, allow_nan=False),
).map(np.array).filter(lambda v: np.linalg.norm(v) < np.pi - 0.05)


def test_identity_rotates_nothing():
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(quat_rotate(quat_identity(), v), v)


def test_normalize_zero_raises():
    # Every helper that normalizes rejects the zero quaternion.
    for helper in (
        quat_normalize,
        quat_to_matrix,
        lambda q: quat_rotate(q, np.array([1.0, 0.0, 0.0])),
        lambda q: quat_rotate(q, np.ones((4, 3))),
    ):
        with pytest.raises(ValueError, match="zero quaternion"):
            helper(np.zeros(4))


def test_axis_angle_90_degrees():
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    rotated = quat_rotate(q, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(rotated, [0.0, 1.0, 0.0], atol=1e-12)


def test_axis_angle_zero_axis_raises():
    with pytest.raises(ValueError):
        quat_from_axis_angle(np.zeros(3), 0.3)


def test_multiply_matches_matrix_product():
    a = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.4)
    b = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), -0.7)
    lhs = quat_to_matrix(quat_multiply(a, b))
    rhs = quat_to_matrix(a) @ quat_to_matrix(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=60)
@given(unit_quats, vectors)
def test_rotation_preserves_norm(q, v):
    assert np.linalg.norm(quat_rotate(q, v)) == pytest.approx(
        np.linalg.norm(v), rel=1e-9, abs=1e-9
    )


@settings(max_examples=60)
@given(unit_quats)
def test_conjugate_is_inverse(q):
    product = quat_multiply(q, quat_conjugate(q))
    assert np.allclose(product, quat_identity(), atol=1e-9)


@settings(max_examples=60)
@given(unit_quats)
def test_matrix_roundtrip(q):
    recovered = matrix_to_quat(quat_to_matrix(q))
    # q and -q represent the same rotation.
    assert np.allclose(recovered, q, atol=1e-8) or np.allclose(recovered, -q, atol=1e-8)


@settings(max_examples=60)
@given(unit_quats)
def test_rotation_matrix_is_orthonormal(q):
    r = quat_to_matrix(q)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-10)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60)
@given(rotvecs)
def test_exp_log_roundtrip(phi):
    recovered = quat_log(quat_exp(phi))
    assert np.allclose(recovered, phi, atol=1e-7)


def test_exp_small_angle_stays_unit():
    q = quat_exp(np.array([1e-10, 0.0, 0.0]))
    assert np.linalg.norm(q) == pytest.approx(1.0)


def test_log_identity_is_zero():
    assert np.allclose(quat_log(quat_identity()), np.zeros(3))


def test_log_picks_shortest_rotation():
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.5)
    assert np.allclose(quat_log(-q), quat_log(q), atol=1e-9)


def test_matrix_to_quat_branch_coverage():
    # Exercise all four Shepperd branches via rotations near 180 degrees
    # about each axis.
    for axis in np.eye(3):
        q = quat_from_axis_angle(axis, np.pi - 1e-4)
        recovered = matrix_to_quat(quat_to_matrix(q))
        assert quat_angle_between(q, recovered) < 1e-6


def test_matrix_to_quat_wrong_shape():
    with pytest.raises(ValueError):
        matrix_to_quat(np.eye(4))


def test_slerp_endpoints():
    a = quat_identity()
    b = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 1.0)
    assert np.allclose(quat_slerp(a, b, 0.0), a)
    assert np.allclose(quat_slerp(a, b, 1.0), b, atol=1e-12)


def test_slerp_midpoint_half_angle():
    b = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 1.0)
    mid = quat_slerp(quat_identity(), b, 0.5)
    assert quat_angle_between(quat_identity(), mid) == pytest.approx(0.5, abs=1e-9)


def test_slerp_t_out_of_range():
    with pytest.raises(ValueError):
        quat_slerp(quat_identity(), quat_identity(), 1.5)


def test_slerp_handles_antipodal_representation():
    b = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.8)
    mid1 = quat_slerp(quat_identity(), b, 0.5)
    mid2 = quat_slerp(quat_identity(), -b, 0.5)
    assert quat_angle_between(mid1, mid2) < 1e-9


def test_angle_between():
    q = quat_from_axis_angle(np.array([1.0, 1.0, 0.0]), 0.7)
    assert quat_angle_between(quat_identity(), q) == pytest.approx(0.7, abs=1e-9)


def test_rotate_batch_of_vectors():
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    batch = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rotated = quat_rotate(q, batch)
    assert np.allclose(rotated, [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]], atol=1e-12)
