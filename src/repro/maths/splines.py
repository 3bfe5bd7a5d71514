"""C2 trajectory interpolation with analytic derivatives.

The sensor substrate needs a ground-truth trajectory that is twice
continuously differentiable (so the synthesized IMU sees no acceleration
jumps) with closed-form linear acceleration and body angular velocity.
Positions use per-axis cubic splines; orientation uses per-angle cubic
splines on ZYX Euler angles (yaw, pitch, roll), whose rates map analytically
to body angular velocity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.maths.se3 import Pose


def euler_zyx_to_quat(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """ZYX Euler angles to unit quaternion (body-to-world).

    This is ``qz(yaw) * qy(pitch) * qx(roll)`` written out on floats.  Each
    factor is an axis-angle quaternion with two zero components; dropping
    the zero terms of the two Hamilton products changes no rounding step.
    """
    cz, sz = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    cy, sy = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cx, sx = math.cos(0.5 * roll), math.sin(0.5 * roll)
    a, b, c, d = cz * cy, -(sz * sy), cz * sy, sz * cy  # qz * qy
    return np.array([a * cx - b * sx, a * sx + b * cx, c * cx + d * sx, d * cx - c * sx])


def euler_rates_to_body_omega(
    yaw: float, pitch: float, roll: float,
    yaw_rate: float, pitch_rate: float, roll_rate: float,
) -> np.ndarray:
    """ZYX Euler angle rates to body-frame angular velocity.

    Standard kinematic relation for the ZYX (yaw-pitch-roll) convention.
    """
    sin_r, cos_r = math.sin(roll), math.cos(roll)
    sin_p, cos_p = math.sin(pitch), math.cos(pitch)
    return np.array(
        [
            roll_rate - yaw_rate * sin_p,
            pitch_rate * cos_r + yaw_rate * cos_p * sin_r,
            -pitch_rate * sin_r + yaw_rate * cos_p * cos_r,
        ]
    )


def _solve_tridiagonal(dl: list, d: list, du: list, b: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system the way LAPACK ``dgtsv`` does.

    ``dl``, ``d`` and ``du`` are the sub-, main and super-diagonal as lists
    of floats (overwritten); ``b`` is (n, k).  Gaussian elimination with
    partial pivoting: where a sub-diagonal entry outweighs its pivot, rows
    i and i+1 swap and ``dl[i]`` keeps the fill-in on the second
    super-diagonal.  Every operation rounds as dgtsv's does, which is what
    ``scipy.linalg.solve_banded((1, 1), ...)`` calls.  The natural-spline
    matrix is strictly diagonally dominant, so no pivot is zero and
    dgtsv's singular-matrix exit is left out.
    """
    n = len(d)
    rows = list(b)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            rows[i + 1] = rows[i + 1] - fact * rows[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            rows[i], rows[i + 1] = rows[i + 1], rows[i] - fact * rows[i + 1]
    rows[n - 1] = rows[n - 1] / d[n - 1]
    rows[n - 2] = (rows[n - 2] - du[n - 2] * rows[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        rows[i] = (rows[i] - du[i] * rows[i + 1] - dl[i] * rows[i + 2]) / d[i]
    return np.array(rows)


def _natural_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, n - 1, k) coefficients of the natural cubic spline through (x, y).

    The system and the arithmetic of ``CubicSpline(x, y, bc_type="natural")``
    for n >= 4 knots: the knot slopes solve scipy's tridiagonal system, and
    the coefficients are ``CubicHermiteSpline``'s, so ``.c`` is bitwise equal.
    Every column of ``y`` is an independent spline over the same knots.
    """
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    d = np.concatenate([2 * dx[:1], 2 * (dx[:-1] + dx[1:]), 2 * dx[-1:]])
    # scipy's end rows also add the natural condition's zero curvature times
    # +-0.5 dx**2, a zero that changes no nonzero value.
    b = np.empty_like(y)
    b[0] = 3 * (y[1] - y[0])
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[-1] = 3 * (y[-1] - y[-2])
    dl = [*dx[1:].tolist(), float(dx[-1])]
    du = [float(dx[0]), *dx[:-1].tolist()]
    s = _solve_tridiagonal(dl, d.tolist(), du, b)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


@dataclass(frozen=True)
class SplineSample:
    """Ground-truth kinematics at one instant."""

    position: np.ndarray          # world frame (m)
    velocity: np.ndarray          # world frame (m/s)
    acceleration: np.ndarray      # world frame (m/s^2), gravity NOT included
    orientation: np.ndarray       # unit quaternion, body-to-world
    omega_body: np.ndarray        # body frame angular velocity (rad/s)

    def pose(self, timestamp: float) -> Pose:
        """This sample's position and orientation, stamped ``timestamp``."""
        return Pose(self.position, self.orientation, timestamp=timestamp)


class TrajectorySpline:
    """Cubic-spline trajectory through position and Euler-angle waypoints.

    ``times`` must be strictly increasing; positions are (N, 3); eulers are
    (N, 3) as (yaw, pitch, roll) in radians.  Natural boundary conditions
    keep accelerations finite at the ends.
    """

    def __init__(self, times: np.ndarray, positions: np.ndarray, eulers: np.ndarray) -> None:
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        eulers = np.asarray(eulers, dtype=float)
        if times.ndim != 1 or len(times) < 4:
            raise ValueError("need at least 4 waypoints")
        if not all(np.isfinite(a).all() for a in (times, positions, eulers)):
            raise ValueError("waypoints must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        if positions.shape != (len(times), 3) or eulers.shape != (len(times), 3):
            raise ValueError("positions and eulers must be (N, 3)")
        if np.max(np.abs(eulers[:, 1])) > np.pi / 2 - 0.05:
            raise ValueError("pitch waypoints too close to gimbal lock (+-pi/2)")
        self.t_start = float(times[0])
        self.t_end = float(times[-1])
        # Positions and Euler angles share the knots, so one solve fits all
        # six columns.  Derivatives are PPoly.derivative's: the coefficient
        # rows times the rising factorials (3, 2, 1) and (6, 2), with zero
        # rows on top, making every piece a cubic whose extra terms add
        # exactly 0.  One (4, intervals, 15) table: position, velocity,
        # acceleration, Euler angles and Euler rates.
        c = _natural_cubic(times, np.concatenate([positions, eulers], axis=1))
        rate = np.zeros_like(c)
        rate[1:] = c[:3] * np.array([3.0, 2.0, 1.0])[:, None, None]
        acceleration = np.zeros_like(c[..., :3])
        acceleration[2:] = c[:2, :, :3] * np.array([6.0, 2.0])[:, None, None]
        table = np.concatenate(
            [c[..., :3], rate[..., :3], acceleration, c[..., 3:], rate[..., 3:]], axis=2
        )
        self._knots = times.tolist()
        self._rows = table.transpose(1, 0, 2).tolist()  # per interval: c0..c3

    def sample(self, t: float) -> SplineSample:
        """Ground-truth kinematics at time ``t`` (clamped to the domain)."""
        t = min(max(float(t), self.t_start), self.t_end)
        knots = self._knots
        # The interval scipy's PPoly picks: knots[i] <= t < knots[i + 1],
        # and the last interval at t_end.
        i = min(bisect_right(knots, t) - 1, len(knots) - 2)
        c0, c1, c2, c3 = self._rows[i]
        s = t - knots[i]
        s2 = s * s
        s3 = s2 * s
        # PPoly's own summation order, so every value matches scipy's
        # evaluation bit for bit.
        v = [d + c * s + b * s2 + a * s3 for a, b, c, d in zip(c0, c1, c2, c3)]
        return SplineSample(
            position=np.array(v[0:3]),
            velocity=np.array(v[3:6]),
            acceleration=np.array(v[6:9]),
            orientation=euler_zyx_to_quat(*v[9:12]),
            omega_body=euler_rates_to_body_omega(*v[9:15]),
        )

    def pose(self, t: float) -> Pose:
        """The true pose at time ``t`` (clamped to the domain), stamped ``t``."""
        return self.sample(t).pose(t)

    @property
    def duration(self) -> float:
        """Length of the trajectory's time domain (seconds)."""
        return self.t_end - self.t_start
