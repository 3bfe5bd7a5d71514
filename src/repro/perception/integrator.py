"""RK4 IMU integrator: the high-rate half of the perception pipeline.

VIO produces precise poses at camera rate (15 Hz); the integrator propagates
the most recent VIO state through every IMU sample (500 Hz) so the visual
pipeline always has a fresh pose (Fig. 2 of the paper: the integrator has a
synchronous dependence on the IMU and an asynchronous one on VIO).

This is the RK4 scheme of OpenVINS' propagator: zero-order hold on the
angular velocity and specific force over each sample interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from repro.maths.quaternion import (
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_unit,
    rotate_unit,
)
from repro.maths.se3 import Pose
from repro.sensors.imu import GRAVITY_W, ImuSample


@dataclass(frozen=True)
class IntegratorState:
    """Full kinematic state the integrator carries between samples."""

    timestamp: float
    orientation: np.ndarray              # unit quaternion, body-to-world
    position: np.ndarray                 # world (m)
    velocity: np.ndarray                 # world (m/s)
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def pose(self) -> Pose:
        """The pose portion of the state."""
        return Pose(self.position, self.orientation, timestamp=self.timestamp)


class Rk4Integrator:
    """Integrates IMU samples forward from the latest VIO anchor."""

    def __init__(self, state: IntegratorState) -> None:
        self.state = state

    def reset(self, state: IntegratorState) -> None:
        """Re-anchor on a fresh VIO estimate.

        The integrator keeps its own propagated time: if the VIO estimate is
        *older* than the current state (VIO latency), the caller should
        re-propagate cached IMU samples after resetting.
        """
        self.state = state

    def step(self, sample: ImuSample) -> IntegratorState:
        """Advance the state to ``sample.timestamp`` using RK4.

        The stages run on Python floats: on 3- and 4-vectors, numpy's
        per-operation overhead costs more than the arithmetic.
        """
        state = self.state
        dt = sample.timestamp - state.timestamp
        if dt < 0:
            raise ValueError(
                f"IMU sample is older than state: {sample.timestamp} < {state.timestamp}"
            )
        if dt == 0.0:
            return state
        wx, wy, wz = (sample.gyro - state.gyro_bias).tolist()
        accel = (sample.accel - state.accel_bias).tolist()
        gx, gy, gz = GRAVITY_W.tolist()

        def derivative(qw: float, qx: float, qy: float, qz: float) -> Tuple[float, ...]:
            """(dq/dt, dv/dt): 0.5 * q (x) [0, omega] and R(q) accel + g."""
            ax, ay, az = rotate_unit(quat_unit(qw, qx, qy, qz), accel)
            return (
                0.5 * (-qx * wx - qy * wy - qz * wz),
                0.5 * (qw * wx + qy * wz - qz * wy),
                0.5 * (qw * wy - qx * wz + qz * wx),
                0.5 * (qw * wz + qx * wy - qy * wx),
                ax + gx,
                ay + gy,
                az + gz,
            )

        # RK4 with zero-order hold on omega and accel.  Each k holds
        # (dq/dt, dv/dt) at one stage; dp/dt at a stage is that stage's
        # velocity: v0, v0 + h k1_v, v0 + h k2_v, v0 + dt k3_v.
        qw, qx, qy, qz = q0 = state.orientation.tolist()
        p0 = state.position.tolist()
        v0 = state.velocity.tolist()
        h = 0.5 * dt
        k1 = derivative(qw, qx, qy, qz)
        k2 = derivative(qw + h * k1[0], qx + h * k1[1], qy + h * k1[2], qz + h * k1[3])
        k3 = derivative(qw + h * k2[0], qx + h * k2[1], qy + h * k2[2], qz + h * k2[3])
        k4 = derivative(qw + dt * k3[0], qx + dt * k3[1], qy + dt * k3[2], qz + dt * k3[3])
        k1_v, k2_v, k3_v, k4_v = k1[4:], k2[4:], k3[4:], k4[4:]
        sixth = dt / 6.0
        q_new = [
            q + sixth * (a + 2 * b + 2 * c + d) for q, a, b, c, d in zip(q0, k1, k2, k3, k4)
        ]
        v_new = [
            v + sixth * (a + 2 * b + 2 * c + d)
            for v, a, b, c, d in zip(v0, k1_v, k2_v, k3_v, k4_v)
        ]
        p_new = [
            p + sixth * (v + 2 * (v + h * a) + 2 * (v + h * b) + (v + dt * c))
            for p, v, a, b, c in zip(p0, v0, k1_v, k2_v, k3_v)
        ]
        self.state = IntegratorState(
            timestamp=sample.timestamp,
            orientation=np.array(quat_unit(*q_new)),
            position=np.array(p_new),
            velocity=np.array(v_new),
            gyro_bias=state.gyro_bias,
            accel_bias=state.accel_bias,
        )
        return self.state


class ComplementaryIntegrator:
    """Alternative implementation (the GTSAM slot of Table II).

    A first-order (Euler) integrator with an exponential-map attitude
    update.  Cheaper and less accurate than RK4; exists to demonstrate the
    runtime's interchangeable-component design.
    """

    def __init__(self, state: IntegratorState) -> None:
        self.state = state

    def reset(self, state: IntegratorState) -> None:
        """Re-anchor on a fresh VIO estimate."""
        self.state = state

    def step(self, sample: ImuSample) -> IntegratorState:
        """Advance to ``sample.timestamp`` with a first-order update."""
        from repro.maths.quaternion import quat_exp

        dt = sample.timestamp - self.state.timestamp
        if dt < 0:
            raise ValueError("IMU sample is older than state")
        if dt == 0.0:
            return self.state
        omega = sample.gyro - self.state.gyro_bias
        accel = sample.accel - self.state.accel_bias
        q_new = quat_normalize(
            quat_multiply(self.state.orientation, quat_exp(omega * dt))
        )
        accel_w = quat_rotate(self.state.orientation, accel) + GRAVITY_W
        v_new = self.state.velocity + accel_w * dt
        p_new = self.state.position + self.state.velocity * dt + 0.5 * accel_w * dt * dt
        self.state = replace(
            self.state,
            timestamp=sample.timestamp,
            orientation=q_new,
            position=p_new,
            velocity=v_new,
        )
        return self.state
