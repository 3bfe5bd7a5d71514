"""Parity of the float-arithmetic kinematics against their numpy formulations.

The trajectory spline, the RK4 integrator, the quaternion helpers, IMU
synthesis and MSCKF propagation do their per-sample math on Python floats.
The numpy formulations they replaced live here as oracles:

- spline position, velocity and acceleration match scipy ``CubicSpline``
  evaluation to 1e-12 relative (the same summation order gives equality);
- spline orientation and body rates match the ``quat_multiply``
  composition of axis-angle quaternions to 1e-14;
- ``quat_normalize`` and ``quat_to_matrix`` stay within 2 and 8 machine
  epsilons of a 50-digit ``decimal`` evaluation of the same formulas (two
  float formulations can each sit a few epsilons from the exact value, so
  comparing them with each other at a fixed bar fails on some inputs);
- one RK4 step matches to 1e-14 absolute, a 2 s chain at 500 Hz to 1e-12;
- ``propagate``'s covariance matches the dense ``G Q_c G^T`` formula to 1e-12.
"""

from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from repro.maths.quaternion import (
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_to_matrix,
)
from repro.maths.se3 import skew
from repro.maths.splines import (
    TrajectorySpline,
    euler_rates_to_body_omega,
    euler_zyx_to_quat,
)
from repro.perception.integrator import IntegratorState, Rk4Integrator
from repro.perception.vio import propagation
from repro.perception.vio.state import IMU_DIM, VioState
from repro.sensors.imu import GRAVITY_W, ImuModel, ImuNoise, ImuSample

PITCH_LIMIT = np.pi / 2 - 0.05

# ---------------------------------------------------------------------------
# Oracles: the numpy formulations
# ---------------------------------------------------------------------------


def np_quat_normalize(q):
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q)
    if norm < 1e-300:
        raise ValueError("cannot normalize a zero quaternion")
    return q / norm


def np_quat_conjugate(q):
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def np_quat_multiply(a, b):
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def np_quat_to_matrix(q):
    w, x, y, z = np_quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def np_quat_rotate(q, v):
    return np.asarray(v, dtype=float) @ np_quat_to_matrix(q).T


EPS = float(np.finfo(float).eps)
DIGITS = 50


def decimal_unit(q):
    """``q / |q|`` to 50 significant digits: exact for these checks."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        parts = [Decimal(c) for c in np.asarray(q, dtype=float).tolist()]
        norm = sum(p * p for p in parts).sqrt()
        return [p / norm for p in parts]


def decimal_matrix(q):
    """The rotation matrix of ``q`` to 50 significant digits, row-major."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        w, x, y, z = decimal_unit(q)
        return [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ]


def max_abs_error(got, exact):
    """Largest ``|got - exact|`` over the entries, with the float entries
    converted to ``Decimal`` exactly."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return max(abs(Decimal(g) - e) for g, e in zip(np.ravel(got).tolist(), exact))


def np_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis / np.linalg.norm(axis)))


def np_euler_zyx_to_quat(yaw, pitch, roll):
    qz = np_axis_angle([0.0, 0.0, 1.0], yaw)
    qy = np_axis_angle([0.0, 1.0, 0.0], pitch)
    qx = np_axis_angle([1.0, 0.0, 0.0], roll)
    return np_quat_multiply(np_quat_multiply(qz, qy), qx)


def np_euler_rates_to_body_omega(yaw, pitch, roll, yaw_rate, pitch_rate, roll_rate):
    sin_r, cos_r = np.sin(roll), np.cos(roll)
    sin_p, cos_p = np.sin(pitch), np.cos(pitch)
    return np.array(
        [
            roll_rate - yaw_rate * sin_p,
            pitch_rate * cos_r + yaw_rate * cos_p * sin_r,
            -pitch_rate * sin_r + yaw_rate * cos_p * cos_r,
        ]
    )


class ScipySpline:
    """The five separate ``CubicSpline`` evaluations of the original sampler."""

    def __init__(self, times, positions, eulers):
        self.t_start, self.t_end = float(times[0]), float(times[-1])
        self.pos = CubicSpline(times, positions, bc_type="natural")
        self.vel = self.pos.derivative(1)
        self.acc = self.pos.derivative(2)
        self.euler = CubicSpline(times, eulers, bc_type="natural")
        self.euler_rate = self.euler.derivative(1)

    def sample(self, t):
        t = float(np.clip(t, self.t_start, self.t_end))
        yaw, pitch, roll = self.euler(t)
        rates = self.euler_rate(t)
        return (
            self.pos(t),
            self.vel(t),
            self.acc(t),
            np_euler_zyx_to_quat(yaw, pitch, roll),
            np_euler_rates_to_body_omega(yaw, pitch, roll, *rates),
        )


def np_rk4_step(state, sample):
    """The numpy RK4 step, including its double normalization per stage."""
    dt = sample.timestamp - state.timestamp
    omega = sample.gyro - state.gyro_bias
    accel = sample.accel - state.accel_bias
    q0, p0, v0 = state.orientation, state.position, state.velocity

    def quat_derivative(q):
        return 0.5 * np_quat_multiply(q, np.concatenate(([0.0], omega)))

    def accel_world(q):
        return np_quat_rotate(np_quat_normalize(q), accel) + GRAVITY_W

    k1_q, k1_v, k1_p = quat_derivative(q0), accel_world(q0), v0
    q_half_1 = q0 + 0.5 * dt * k1_q
    k2_q, k2_v, k2_p = quat_derivative(q_half_1), accel_world(q_half_1), v0 + 0.5 * dt * k1_v
    q_half_2 = q0 + 0.5 * dt * k2_q
    k3_q, k3_v, k3_p = quat_derivative(q_half_2), accel_world(q_half_2), v0 + 0.5 * dt * k2_v
    q_full = q0 + dt * k3_q
    k4_q, k4_v, k4_p = quat_derivative(q_full), accel_world(q_full), v0 + dt * k3_v
    return replace(
        state,
        timestamp=sample.timestamp,
        orientation=np_quat_normalize(q0 + dt / 6.0 * (k1_q + 2 * k2_q + 2 * k3_q + k4_q)),
        position=p0 + dt / 6.0 * (k1_p + 2 * k2_p + 2 * k3_p + k4_p),
        velocity=v0 + dt / 6.0 * (k1_v + 2 * k2_v + 2 * k3_v + k4_v),
    )


def np_propagated_covariance(state, sample, noise):
    """The dense covariance formula of ``propagate`` (no cached blocks)."""
    dt = sample.timestamp - state.timestamp
    omega = sample.gyro - state.gyro_bias
    accel = sample.accel - state.accel_bias
    rotation = np_quat_to_matrix(state.orientation)
    f = np.zeros((IMU_DIM, IMU_DIM))
    f[0:3, 0:3] = -skew(omega)
    f[0:3, 9:12] = -np.eye(3)
    f[3:6, 6:9] = np.eye(3)
    f[6:9, 0:3] = -rotation @ skew(accel)
    f[6:9, 12:15] = -rotation
    phi = np.eye(IMU_DIM) + f * dt + 0.5 * (f @ f) * dt * dt
    g = np.zeros((IMU_DIM, 12))
    g[0:3, 0:3] = -np.eye(3)
    g[6:9, 3:6] = -rotation
    g[9:12, 6:9] = np.eye(3)
    g[12:15, 9:12] = np.eye(3)
    qc = np.diag(
        [noise.gyro_noise_density**2] * 3
        + [noise.accel_noise_density**2] * 3
        + [noise.gyro_bias_walk**2] * 3
        + [noise.accel_bias_walk**2] * 3
    )
    qd = g @ qc @ g.T * dt
    cov = state.covariance.copy()
    cov[:IMU_DIM, :IMU_DIM] = phi @ cov[:IMU_DIM, :IMU_DIM] @ phi.T + qd
    if state.dim > IMU_DIM:
        cross = phi @ state.covariance[:IMU_DIM, IMU_DIM:]
        cov[:IMU_DIM, IMU_DIM:] = cross
        cov[IMU_DIM:, :IMU_DIM] = cross.T
    return 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)
quats = st.lists(st.floats(-1.0, 1.0, **finite), min_size=4, max_size=4).map(np.array).filter(
    lambda q: np.linalg.norm(q) > 1e-3
)
vec3 = st.lists(st.floats(-20.0, 20.0, **finite), min_size=3, max_size=3).map(np.array)


def random_waypoints(rng, n, pitch_at_limit=False):
    times = np.cumsum(rng.uniform(0.05, 2.0, n)) - rng.uniform(-5.0, 5.0)
    positions = rng.normal(0.0, 3.0, (n, 3))
    eulers = np.column_stack(
        [
            rng.uniform(-np.pi, np.pi, n),
            rng.uniform(-PITCH_LIMIT, PITCH_LIMIT, n),
            rng.uniform(-np.pi, np.pi, n),
        ]
    )
    if pitch_at_limit:
        eulers[:, 1] = PITCH_LIMIT * rng.choice([-1.0, 1.0], n)
    return times, positions, eulers


def random_state(rng, **overrides):
    fields = dict(
        timestamp=float(rng.uniform(0.0, 100.0)),
        orientation=quat_normalize(rng.normal(size=4)),
        position=rng.normal(0.0, 5.0, 3),
        velocity=rng.normal(0.0, 2.0, 3),
        gyro_bias=rng.normal(0.0, 0.01, 3),
        accel_bias=rng.normal(0.0, 0.1, 3),
    )
    fields.update(overrides)
    return IntegratorState(**fields)


def random_sample(rng, timestamp):
    return ImuSample(
        timestamp=timestamp,
        gyro=rng.normal(0.0, 2.0, 3),
        accel=-GRAVITY_W + rng.normal(0.0, 3.0, 3),
    )


# ---------------------------------------------------------------------------
# Trajectory spline
# ---------------------------------------------------------------------------


def assert_spline_parity(spline, oracle, t):
    got = spline.sample(t)
    pos, vel, acc, quat, omega = oracle.sample(t)
    np.testing.assert_allclose(got.position, pos, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.velocity, vel, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.acceleration, acc, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.orientation, quat, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got.omega_body, omega, rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(4, 12), st.booleans())
def test_spline_matches_scipy_and_quaternion_composition(seed, n, pitch_at_limit):
    rng = np.random.default_rng(seed)
    waypoints = random_waypoints(rng, n, pitch_at_limit)
    spline, oracle = TrajectorySpline(*waypoints), ScipySpline(*waypoints)
    times = waypoints[0]
    span = times[-1] - times[0]
    inside = rng.uniform(times[0], times[-1], 20)
    outside = [times[0] - 0.5 * span, times[0] - 1e-9, times[-1] + 1e-9, times[-1] + span]
    for t in [*times, *inside, *outside]:
        assert_spline_parity(spline, oracle, float(t))


def test_spline_evaluation_is_bitwise_scipy():
    """Same interval, same summation order: equality, not just closeness."""
    rng = np.random.default_rng(7)
    waypoints = random_waypoints(rng, 9)
    spline, oracle = TrajectorySpline(*waypoints), ScipySpline(*waypoints)
    for t in [*waypoints[0], *rng.uniform(waypoints[0][0], waypoints[0][-1], 200)]:
        got = spline.sample(float(t))
        pos, vel, acc, _, _ = oracle.sample(float(t))
        assert np.array_equal(got.position, pos)
        assert np.array_equal(got.velocity, vel)
        assert np.array_equal(got.acceleration, acc)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-np.pi, np.pi, **finite),
    st.floats(-PITCH_LIMIT, PITCH_LIMIT, **finite),
    st.floats(-np.pi, np.pi, **finite),
    vec3,
)
def test_euler_conversions_match_numpy(yaw, pitch, roll, rates):
    np.testing.assert_allclose(
        euler_zyx_to_quat(yaw, pitch, roll), np_euler_zyx_to_quat(yaw, pitch, roll), atol=1e-14
    )
    np.testing.assert_allclose(
        euler_rates_to_body_omega(yaw, pitch, roll, *rates),
        np_euler_rates_to_body_omega(yaw, pitch, roll, *rates),
        atol=1e-14,
    )


# ---------------------------------------------------------------------------
# Quaternion helpers
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(quats, quats, vec3)
def test_quaternion_helpers_match_numpy(a, b, v):
    assert max_abs_error(quat_normalize(a), decimal_unit(a)) <= 2 * EPS
    assert np.array_equal(quat_conjugate(a), np_quat_conjugate(a))
    assert np.array_equal(quat_multiply(a, b), np_quat_multiply(a, b))
    assert max_abs_error(quat_to_matrix(a), decimal_matrix(a)) <= 8 * EPS
    np.testing.assert_allclose(quat_rotate(a, v), np_quat_rotate(a, v), rtol=0, atol=1e-13)
    batch = np.stack([v, -2.0 * v, v[::-1]])
    np.testing.assert_allclose(quat_rotate(a, batch), np_quat_rotate(a, batch), atol=1e-13)


def test_helpers_keep_types_and_shapes():
    q = np.array([0.9, 0.1, -0.3, 0.2])
    for result, shape in (
        (quat_normalize(q), (4,)),
        (quat_conjugate(q), (4,)),
        (quat_multiply(q, q), (4,)),
        (quat_to_matrix(q), (3, 3)),
        (quat_rotate(q, [1.0, 2.0, 3.0]), (3,)),
        (quat_rotate(q, np.ones((5, 3))), (5, 3)),
    ):
        assert isinstance(result, np.ndarray)
        assert result.dtype == np.float64
        assert result.shape == shape


# ---------------------------------------------------------------------------
# RK4 integrator
# ---------------------------------------------------------------------------


def assert_states_close(got, expected, atol):
    assert got.timestamp == expected.timestamp
    for field in ("orientation", "position", "velocity"):
        np.testing.assert_allclose(
            getattr(got, field), getattr(expected, field), rtol=0, atol=atol, err_msg=field
        )
    assert np.array_equal(got.gyro_bias, expected.gyro_bias)
    assert np.array_equal(got.accel_bias, expected.accel_bias)


@settings(max_examples=100, deadline=None)
@given(seeds, st.floats(1e-6, 0.01, **finite))
def test_rk4_step_matches_numpy(seed, dt):
    rng = np.random.default_rng(seed)
    state = random_state(rng)
    sample = random_sample(rng, state.timestamp + dt)
    got = Rk4Integrator(state).step(sample)
    assert isinstance(got, IntegratorState)
    assert_states_close(got, np_rk4_step(state, sample), atol=1e-14)


@settings(max_examples=5, deadline=None)
@given(seeds)
def test_rk4_two_second_chain_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, timestamp=0.0)
    integrator, expected = Rk4Integrator(state), state
    for i in range(1, 1001):
        sample = random_sample(rng, i / 500.0)
        expected = np_rk4_step(expected, sample)
        integrator.step(sample)
    assert_states_close(integrator.state, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# IMU synthesis and MSCKF propagation
# ---------------------------------------------------------------------------


def test_imu_sample_matches_numpy_rotation_and_noise_stream():
    rng = np.random.default_rng(11)
    waypoints = random_waypoints(rng, 8)
    spline = TrajectorySpline(*waypoints)
    imu = ImuModel(spline, seed=5)
    oracle_rng = np.random.default_rng(5)
    gyro_bias = oracle_rng.normal(0.0, 2e-3, 3)
    accel_bias = oracle_rng.normal(0.0, 2e-2, 3)
    noise, sqrt_rate, sqrt_dt = imu.noise, np.sqrt(imu.rate_hz), np.sqrt(imu.period)
    for t in np.arange(waypoints[0][0], waypoints[0][-1], 0.05):
        got = imu.sample_at(float(t))
        truth = spline.sample(float(t))
        accel_body = np_quat_rotate(
            np_quat_conjugate(truth.orientation), truth.acceleration - GRAVITY_W
        )
        gyro = truth.omega_body + gyro_bias + oracle_rng.normal(
            0.0, noise.gyro_noise_density * sqrt_rate, 3
        )
        accel = accel_body + accel_bias + oracle_rng.normal(
            0.0, noise.accel_noise_density * sqrt_rate, 3
        )
        gyro_bias = gyro_bias + oracle_rng.normal(0.0, noise.gyro_bias_walk * sqrt_dt, 3)
        accel_bias = accel_bias + oracle_rng.normal(0.0, noise.accel_bias_walk * sqrt_dt, 3)
        assert np.array_equal(got.gyro, gyro)
        np.testing.assert_allclose(got.accel, accel, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(0, 3), st.floats(1e-4, 0.01, **finite))
def test_propagate_covariance_matches_dense_formula(seed, clones, dt):
    rng = np.random.default_rng(seed)
    start = random_state(rng)
    state = VioState(
        timestamp=start.timestamp,
        orientation=start.orientation,
        position=start.position,
        velocity=start.velocity,
        gyro_bias=start.gyro_bias,
        accel_bias=start.accel_bias,
    )
    for _ in range(clones):
        state.augment_clone()
    dim = state.dim
    root = rng.normal(0.0, 0.01, (dim, dim))
    state.covariance = root @ root.T + 1e-6 * np.eye(dim)
    noise = ImuNoise(
        gyro_noise_density=float(rng.uniform(1e-5, 1e-3)),
        accel_noise_density=float(rng.uniform(1e-4, 1e-2)),
    )
    sample = random_sample(rng, state.timestamp + dt)
    expected_cov = np_propagated_covariance(state, sample, noise)
    expected_mean = np_rk4_step(start, sample)

    propagation.propagate(state, sample, noise)

    scale = np.max(np.abs(expected_cov))
    np.testing.assert_allclose(state.covariance, expected_cov, rtol=0, atol=1e-12 * scale)
    assert state.timestamp == expected_mean.timestamp
    np.testing.assert_allclose(state.orientation, expected_mean.orientation, atol=1e-14)
    np.testing.assert_allclose(state.position, expected_mean.position, atol=1e-14)
    np.testing.assert_allclose(state.velocity, expected_mean.velocity, atol=1e-14)
