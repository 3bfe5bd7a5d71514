"""IMU synthesis: the standard white-noise + bias-random-walk error model.

The synthesized measurements are what a strapdown IMU reports:

- gyroscope: body angular velocity + slowly drifting bias + white noise;
- accelerometer: specific force ``R^T (a_world - g_world)`` + bias + noise,
  with gravity ``g_world = (0, 0, -9.81)``.

Noise densities default to ZED-Mini-class MEMS values (continuous-time
densities, discretized by ``sqrt(rate)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.maths.quaternion import quat_conjugate, quat_rotate
from repro.maths.splines import TrajectorySpline

GRAVITY_W = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class ImuSample:
    """One timestamped IMU measurement (body frame)."""

    timestamp: float
    gyro: np.ndarray   # rad/s
    accel: np.ndarray  # m/s^2 (specific force)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gyro", np.asarray(self.gyro, dtype=float))
        object.__setattr__(self, "accel", np.asarray(self.accel, dtype=float))


@dataclass(frozen=True)
class ImuNoise:
    """Continuous-time noise densities (EuRoC-style parameterization)."""

    gyro_noise_density: float = 1.7e-4      # rad / s / sqrt(Hz)
    accel_noise_density: float = 2.0e-3     # m / s^2 / sqrt(Hz)
    gyro_bias_walk: float = 2.0e-5          # rad / s^2 / sqrt(Hz)
    accel_bias_walk: float = 3.0e-3         # m / s^3 / sqrt(Hz)


@dataclass
class ImuModel:
    """Stateful IMU synthesizer (biases evolve as a random walk)."""

    trajectory: TrajectorySpline
    rate_hz: float = 500.0
    noise: ImuNoise = field(default_factory=ImuNoise)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError(f"rate must be positive: {self.rate_hz}")
        self._rng = np.random.default_rng(self.seed)
        self._gyro_bias = self._rng.normal(0.0, 2e-3, 3)
        self._accel_bias = self._rng.normal(0.0, 2e-2, 3)
        self._dt = 1.0 / self.rate_hz
        self._sqrt_rate = np.sqrt(self.rate_hz)
        self._sqrt_dt = np.sqrt(self._dt)

    @property
    def period(self) -> float:
        """Seconds between samples."""
        return self._dt

    def sample_at(self, t: float) -> ImuSample:
        """Synthesize the measurement at time ``t`` and advance the biases."""
        truth = self.trajectory.sample(t)
        # Specific force in the body frame.
        specific_force_w = truth.acceleration - GRAVITY_W
        accel_body = quat_rotate(quat_conjugate(truth.orientation), specific_force_w)
        gyro = (
            truth.omega_body
            + self._gyro_bias
            + self._rng.normal(0.0, self.noise.gyro_noise_density * self._sqrt_rate, 3)
        )
        accel = (
            accel_body
            + self._accel_bias
            + self._rng.normal(0.0, self.noise.accel_noise_density * self._sqrt_rate, 3)
        )
        # Bias random walk.
        self._gyro_bias = self._gyro_bias + self._rng.normal(
            0.0, self.noise.gyro_bias_walk * self._sqrt_dt, 3
        )
        self._accel_bias = self._accel_bias + self._rng.normal(
            0.0, self.noise.accel_bias_walk * self._sqrt_dt, 3
        )
        return ImuSample(timestamp=t, gyro=gyro, accel=accel)

    def sequence(self, t_start: float, t_end: float) -> List[ImuSample]:
        """All samples on the regular grid in ``[t_start, t_end)``."""
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        times = np.arange(t_start, t_end, self._dt)
        # A float step can put the last grid point on t_end itself.
        times = times[times < t_end]
        return [self.sample_at(float(t)) for t in times]
