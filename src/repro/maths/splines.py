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
from scipy.interpolate import CubicSpline


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


@dataclass(frozen=True)
class SplineSample:
    """Ground-truth kinematics at one instant."""

    position: np.ndarray          # world frame (m)
    velocity: np.ndarray          # world frame (m/s)
    acceleration: np.ndarray      # world frame (m/s^2), gravity NOT included
    orientation: np.ndarray       # unit quaternion, body-to-world
    omega_body: np.ndarray        # body frame angular velocity (rad/s)


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
        if np.any(np.diff(times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        if positions.shape != (len(times), 3) or eulers.shape != (len(times), 3):
            raise ValueError("positions and eulers must be (N, 3)")
        if np.max(np.abs(eulers[:, 1])) > np.pi / 2 - 0.05:
            raise ValueError("pitch waypoints too close to gimbal lock (+-pi/2)")
        self.t_start = float(times[0])
        self.t_end = float(times[-1])
        position = CubicSpline(times, positions, bc_type="natural")
        euler = CubicSpline(times, eulers, bc_type="natural")
        pieces = (
            position,
            position.derivative(1),
            position.derivative(2),
            euler,
            euler.derivative(1),
        )
        # One (4, intervals, 15) table: position, velocity, acceleration,
        # Euler angles and Euler rates.  Derivatives have fewer coefficients;
        # zero rows on top make them cubics whose extra terms add exactly 0.
        table = np.concatenate(
            [np.pad(p.c, ((4 - p.c.shape[0], 0), (0, 0), (0, 0))) for p in pieces], axis=2
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

    @property
    def duration(self) -> float:
        """Length of the trajectory's time domain (seconds)."""
        return self.t_end - self.t_start
