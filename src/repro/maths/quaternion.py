"""Hamilton quaternions, stored as numpy arrays ``[w, x, y, z]``.

Unit quaternions represent rotations; ``quat_rotate(q, v)`` applies the
rotation ``R(q) @ v``.  All functions are pure and never mutate inputs.

The helpers unpack their inputs with ``.tolist()`` and do the arithmetic on
Python floats: on 3- and 4-element inputs that is several times cheaper
than numpy.  :func:`quat_unit` and :func:`rotate_unit` are the same kernels
on floats, for the 500 Hz paths (RK4 integration) that stay in floats
between calls.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def quat_unit(w: float, x: float, y: float, z: float) -> Tuple[float, float, float, float]:
    """Unit-norm ``(w, x, y, z)`` as floats; the zero quaternion raises."""
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if norm < 1e-300:
        raise ValueError("cannot normalize a zero quaternion")
    return w / norm, x / norm, y / norm, z / norm


def _matrix_rows(w: float, x: float, y: float, z: float) -> Tuple[Tuple[float, ...], ...]:
    """Rows of the rotation matrix of the unit quaternion ``(w, x, y, z)``."""
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def rotate_unit(q: Sequence[float], v: Sequence[float]) -> Tuple[float, float, float]:
    """``R(q) @ v`` for a unit quaternion ``q`` and a 3-vector ``v``, as floats."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = _matrix_rows(*q)
    vx, vy, vz = v
    return (
        m00 * vx + m01 * vy + m02 * vz,
        m10 * vx + m11 * vy + m12 * vz,
        m20 * vx + m21 * vy + m22 * vz,
    )


def quat_identity() -> np.ndarray:
    """The identity rotation."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit-norm copy of ``q``; the zero quaternion raises."""
    return np.array(quat_unit(*np.asarray(q, dtype=float).tolist()))


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Conjugate (inverse for unit quaternions)."""
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    return np.array([w, -x, -y, -z])


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product ``a * b`` (apply ``b`` first, then ``a``)."""
    aw, ax, ay, az = np.asarray(a, dtype=float).tolist()
    bw, bx, by, bz = np.asarray(b, dtype=float).tolist()
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) ``v`` by unit quaternion ``q``.

    ``v`` may be shape (3,) or (N, 3).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        unit = quat_unit(*np.asarray(q, dtype=float).tolist())
        return np.array(rotate_unit(unit, v.tolist()))
    return v @ quat_to_matrix(q).T


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of unit quaternion ``q``."""
    return np.array(_matrix_rows(*quat_unit(*np.asarray(q, dtype=float).tolist())))


def matrix_to_quat(matrix: np.ndarray) -> np.ndarray:
    """Unit quaternion of rotation matrix ``matrix`` (Shepperd's method)."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {m.shape}")
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace > 0:
        s = 2.0 * np.sqrt(trace + 1.0)
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] > m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = 2.0 * np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit quaternion rotating by ``angle`` radians about ``axis``."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm < 1e-300:
        raise ValueError("axis must be nonzero")
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis / norm))


def quat_exp(phi: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector ``phi`` (3,) -> unit quaternion."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    if angle < 1e-12:
        # Second-order small-angle expansion keeps the result unit-norm.
        return quat_normalize(np.concatenate(([1.0 - angle**2 / 8.0], 0.5 * phi)))
    return np.concatenate(([np.cos(angle / 2)], np.sin(angle / 2) * phi / angle))


def quat_log(q: np.ndarray) -> np.ndarray:
    """Logarithm map: unit quaternion -> rotation vector (3,)."""
    q = quat_normalize(q)
    if q[0] < 0:  # Keep the shortest rotation.
        q = -q
    vec_norm = np.linalg.norm(q[1:])
    if vec_norm < 1e-12:
        return 2.0 * q[1:]
    angle = 2.0 * np.arctan2(vec_norm, q[0])
    return angle * q[1:] / vec_norm


def quat_slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Spherical linear interpolation from ``a`` (t=0) to ``b`` (t=1)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t out of [0,1]: {t}")
    a = quat_normalize(a)
    b = quat_normalize(b)
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > 0.9995:
        return quat_normalize(a + t * (b - a))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    return (np.sin((1 - t) * theta) * a + np.sin(t * theta) * b) / np.sin(theta)


def quat_angle_between(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle (radians) between two unit quaternions."""
    return float(np.linalg.norm(quat_log(quat_multiply(quat_conjugate(a), b))))
