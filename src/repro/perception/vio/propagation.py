"""IMU propagation of the MSCKF: RK4 mean + linearized covariance.

Error-state dynamics for the local-perturbation convention
``R = R_hat @ Exp(theta)``::

    theta_dot = -[omega]x theta - d_bg - n_g
    p_dot     = d_v
    v_dot     = -R_hat [a]x theta - R_hat d_ba - R_hat n_a
    bg_dot    = n_wg
    ba_dot    = n_wa

The transition matrix is discretized to second order per IMU sample
(dt ~ 2 ms), which is plenty accurate at these rates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import skew
from repro.perception.integrator import IntegratorState, Rk4Integrator
from repro.perception.vio.state import IMU_DIM, VioState
from repro.sensors.imu import ImuNoise, ImuSample


@lru_cache(maxsize=8)
def _constant_blocks(noise: ImuNoise) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F and G with their constant blocks filled, the diagonal of Q_c, and I.

    Read-only: :func:`propagate` copies F and G before writing the blocks
    that depend on the sample.
    """
    f = np.zeros((IMU_DIM, IMU_DIM))
    f[0:3, 9:12] = -np.eye(3)
    f[3:6, 6:9] = np.eye(3)
    g = np.zeros((IMU_DIM, 12))
    g[0:3, 0:3] = -np.eye(3)
    g[9:12, 6:9] = np.eye(3)
    g[12:15, 9:12] = np.eye(3)
    qc_diag = np.array(
        [noise.gyro_noise_density**2] * 3
        + [noise.accel_noise_density**2] * 3
        + [noise.gyro_bias_walk**2] * 3
        + [noise.accel_bias_walk**2] * 3
    )
    identity = np.eye(IMU_DIM)
    for block in (f, g, qc_diag, identity):
        block.setflags(write=False)
    return f, g, qc_diag, identity


def propagate(state: VioState, sample: ImuSample, noise: ImuNoise) -> None:
    """Propagate mean and covariance through one IMU sample, in place."""
    dt = sample.timestamp - state.timestamp
    if dt < 0:
        raise ValueError(f"IMU sample predates state: {sample.timestamp} < {state.timestamp}")
    if dt == 0.0:
        return
    omega = sample.gyro - state.gyro_bias
    accel = sample.accel - state.accel_bias
    neg_rotation = -quat_to_matrix(state.orientation)
    f_const, g_const, qc_diag, identity = _constant_blocks(noise)

    # --- Covariance (uses the pre-propagation linearization point) -------
    f = f_const.copy()
    f[0:3, 0:3] = -skew(omega)
    f[6:9, 0:3] = neg_rotation @ skew(accel)
    f[6:9, 12:15] = neg_rotation
    phi = identity + f * dt + 0.5 * (f @ f) * dt * dt

    g = g_const.copy()
    g[6:9, 3:6] = neg_rotation
    # Q_c is diagonal, so G @ Q_c is G with its columns scaled.
    qd = (g * qc_diag) @ g.T * dt

    # Only the IMU block needs symmetrizing: the cross blocks are written as
    # X and X.T, and every other writer of the covariance (EKF update,
    # landmark initialization, cloning, marginalization) leaves the rest
    # exactly symmetric, where 0.5 * (a + a) == a.
    cov = state.covariance
    p_ii = phi @ cov[:IMU_DIM, :IMU_DIM] @ phi.T + qd
    cov[:IMU_DIM, :IMU_DIM] = 0.5 * (p_ii + p_ii.T)
    if state.dim > IMU_DIM:
        new_cross = phi @ cov[:IMU_DIM, IMU_DIM:]
        cov[:IMU_DIM, IMU_DIM:] = new_cross
        cov[IMU_DIM:, :IMU_DIM] = new_cross.T

    # --- Mean (RK4, same scheme as the standalone integrator) -----------
    integrator = Rk4Integrator(
        IntegratorState(
            timestamp=state.timestamp,
            orientation=state.orientation,
            position=state.position,
            velocity=state.velocity,
            gyro_bias=state.gyro_bias,
            accel_bias=state.accel_bias,
        )
    )
    result = integrator.step(sample)
    state.timestamp = result.timestamp
    state.orientation = result.orientation
    state.position = result.position
    state.velocity = result.velocity
