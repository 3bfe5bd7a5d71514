"""Parity of the full-fidelity algorithm layers against their per-element code.

Speech synthesis, HOA encoding, SH rotation, MSCKF triangulation and
Jacobians, the covariance step and the stereo camera compute per-config
constants once and run whole windows as array expressions.  The code they
replaced lives here as oracles:

- speech int16 blocks and camera observation dicts are bitwise equal;
- SH values come from one fused product instead of per-channel formulas,
  so encoded soundfields agree to 1e-15 of their peak, SH rotation
  matrices (8 cached sample directions instead of 48 least-squares
  solves) to 1e-14 absolute, and rendered stereo to 1e-12 of its peak;
- triangulation and the feature/landmark Jacobians return None in the
  same cases and agree to 1e-12 relative;
- ``propagate`` symmetrizes only the IMU block, which is bitwise the full
  symmetrize whenever the covariance enters exactly symmetric -- and a
  whole-run property checks that it always does.
"""

from collections import defaultdict
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.ambisonics import fibonacci_directions
from repro.audio.encoding import AudioEncoder
from repro.audio.hrtf import HrtfSet
from repro.audio.playback import AudioPlayback
from repro.audio.rotation import sh_rotation_matrix, zoom_soundfield
from repro.audio.sources import MusicLikeSource, SpeechLikeSource
from repro.maths.quaternion import quat_from_axis_angle, quat_to_matrix
from repro.maths.se3 import R_CAM_BODY, Pose, skew
from repro.perception.integrator import IntegratorState, Rk4Integrator
from repro.perception.vio import propagation
from repro.perception.vio.state import IMU_DIM, VioState
from repro.perception.vio.tracker import Track
from repro.perception.vio.triangulation import CloneObservation, triangulate
from repro.perception.vio.update import feature_jacobians, landmark_jacobians
from repro.sensors.camera import CameraIntrinsics, LandmarkField, StereoCamera
from repro.sensors.imu import ImuNoise, ImuSample

BASELINE = 0.063
INTRINSICS = CameraIntrinsics()

seeds = st.integers(0, 2**32 - 1)

# ---------------------------------------------------------------------------
# Oracles: the per-element formulations
# ---------------------------------------------------------------------------


def oracle_speech_blocks(seed: int, sizes: List[int]) -> Tuple[List[np.ndarray], float]:
    """``SpeechLikeSource.block`` with its low-pass on float64 array elements.

    Returns the int16 blocks and the filter state after the last one.
    """
    rng = np.random.default_rng(seed)
    phase = 0
    lp_state = 0.0
    blocks = []
    for n in sizes:
        t = (phase + np.arange(n)) / 48000
        phase += n
        envelope = np.clip(np.sin(2 * np.pi * 3.7 * t) + 0.3, 0.0, 1.3)
        noise = rng.normal(0.0, 1.0, n)
        voiced = 0.5 * np.sin(2 * np.pi * 220 * t) + 0.3 * np.sin(2 * np.pi * 540 * t + 1.0)
        raw = envelope * (0.5 * noise * 0.3 + voiced)
        out = np.empty(n)
        state = lp_state
        alpha = 0.25
        for i in range(n):
            state = state + alpha * (raw[i] - state)
            out[i] = state
        lp_state = state
        blocks.append(np.clip(out * 20000, -32768, 32767).astype(np.int16))
    return blocks, float(lp_state)


def oracle_real_sh_matrix(order: int, directions: np.ndarray) -> np.ndarray:
    """Real SH (N3D, ACN), one formula per channel."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    d = d / np.linalg.norm(d, axis=1)[:, None]
    x, y, z = d[:, 0], d[:, 1], d[:, 2]
    cols = [np.ones_like(x)]
    if order >= 1:
        s3 = np.sqrt(3.0)
        cols += [s3 * y, s3 * z, s3 * x]
    if order >= 2:
        s15 = np.sqrt(15.0)
        s5 = np.sqrt(5.0)
        cols += [
            s15 * x * y,
            s15 * y * z,
            s5 / 2.0 * (3 * z * z - 1.0),
            s15 * x * z,
            s15 / 2.0 * (x * x - y * y),
        ]
    if order >= 3:
        s35_8 = np.sqrt(35.0 / 8.0)
        s105 = np.sqrt(105.0)
        s21_8 = np.sqrt(21.0 / 8.0)
        s7 = np.sqrt(7.0)
        cols += [
            s35_8 * y * (3 * x * x - y * y),
            s105 * x * y * z,
            s21_8 * y * (5 * z * z - 1.0),
            s7 / 2.0 * z * (5 * z * z - 3.0),
            s21_8 * x * (5 * z * z - 1.0),
            s105 / 2.0 * z * (x * x - y * y),
            s35_8 * x * (x * x - 3 * y * y),
        ]
    return np.stack(cols, axis=1)


def oracle_encode(sources, order: int, block_size: int, listener=None) -> np.ndarray:
    """The encoder loop: ``encode_block`` per source, gains evaluated each block."""
    listener = np.zeros(3) if listener is None else np.asarray(listener, dtype=float)
    soundfield = np.zeros(((order + 1) ** 2, block_size))
    for source in sources:
        normalized = source.block(block_size).astype(np.float32) / 32768.0
        direction = np.asarray(source.position, dtype=float) - listener
        if np.linalg.norm(direction) < 1e-9:
            direction = np.array([1.0, 0.0, 0.0])
        gains = oracle_real_sh_matrix(order, direction)[0]
        soundfield += np.outer(gains, np.asarray(normalized, dtype=np.float64))
    return soundfield


_OLD_SAMPLE_DIRECTIONS = fibonacci_directions(48)


def oracle_sh_rotation_matrix(order: int, rotation: np.ndarray) -> np.ndarray:
    """Per-degree least squares on 48 fixed directions, solved per call."""
    channels = (order + 1) ** 2
    result = np.zeros((channels, channels))
    result[0, 0] = 1.0
    y_all = oracle_real_sh_matrix(order, _OLD_SAMPLE_DIRECTIONS)
    y_rot_all = oracle_real_sh_matrix(order, _OLD_SAMPLE_DIRECTIONS @ rotation.T)
    for degree in range(1, order + 1):
        start, stop = degree * degree, (degree + 1) ** 2
        block_t, *_ = np.linalg.lstsq(y_all[:, start:stop], y_rot_all[:, start:stop], rcond=None)
        result[start:stop, start:stop] = block_t.T
    return result


class OraclePlayback:
    """``AudioPlayback.render_block`` with the oracle SH rotation and decoder."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self.hrtf = HrtfSet(order=3, fft_size=max(2048, 2 * block_size))
        self.decoder = np.linalg.pinv(
            oracle_real_sh_matrix(3, self.hrtf.speaker_directions).T
        )
        freqs = np.fft.rfftfreq(block_size, d=1.0 / 48000)
        f = np.maximum(freqs, 20.0)
        self.filter_gain = (f / (f + 80.0)) * (1.0 + 0.4 * np.exp(-((np.log(f / 3000.0)) ** 2)))
        self.tail = None

    def render_block(self, soundfield: np.ndarray, pose: Pose) -> np.ndarray:
        spectra = np.fft.rfft(soundfield, axis=1) * self.filter_gain[None, :]
        filtered = np.fft.irfft(spectra, n=self.block_size, axis=1)
        rotated = oracle_sh_rotation_matrix(3, quat_to_matrix(pose.orientation).T) @ filtered
        zoomed = zoom_soundfield(rotated, 0.3)
        fft_size = self.hrtf.fft_size
        speakers = self.decoder @ zoomed
        ears = np.einsum(
            "sb,seb->eb", np.fft.rfft(speakers, n=fft_size, axis=1), self.hrtf.responses
        )
        rendered = np.fft.irfft(ears, n=fft_size, axis=1)
        out = rendered[:, : self.block_size].copy()
        new_tail = rendered[:, self.block_size :].copy()
        if self.tail is not None:
            out += self.tail[:, : self.block_size]
            new_tail[:, : self.tail.shape[1] - self.block_size] += self.tail[:, self.block_size :]
        self.tail = new_tail
        return out


def _oracle_camera_pose(orientation, position, eye_offset):
    r_cw = R_CAM_BODY @ quat_to_matrix(orientation).T
    t = -r_cw @ position
    t[0] -= eye_offset
    return r_cw, t


def oracle_triangulate(observations, intrinsics, baseline_m, max_iterations=5, pixel_sigma=1.0):
    """Triangulation with one DLT row pair and one Jacobian per eye."""
    if not observations:
        return None
    rows_a, rows_b, cams = [], [], []
    for obs in observations:
        for eye_offset, uv in ((0.0, obs.uv_left), (baseline_m, obs.uv_right)):
            r_cw, t = _oracle_camera_pose(obs.orientation, obs.position, eye_offset)
            x = (uv[0] - intrinsics.cx) / intrinsics.fx
            y = (uv[1] - intrinsics.cy) / intrinsics.fy
            rows_a.append(x * r_cw[2] - r_cw[0])
            rows_b.append(t[0] - x * t[2])
            rows_a.append(y * r_cw[2] - r_cw[1])
            rows_b.append(t[1] - y * t[2])
            cams.append((r_cw, t, np.asarray(uv, dtype=float)))
    solution, _res, rank, _sv = np.linalg.lstsq(np.vstack(rows_a), np.asarray(rows_b), rcond=None)
    if rank < 3:
        return None
    point = solution
    converged = False
    jtj = np.eye(3)
    for _ in range(max_iterations):
        residuals, jacobians = [], []
        for r_cw, t, uv in cams:
            p_cam = r_cw @ point + t
            if p_cam[2] < 0.05:
                return None
            z = p_cam[2]
            u_hat = intrinsics.fx * p_cam[0] / z + intrinsics.cx
            v_hat = intrinsics.fy * p_cam[1] / z + intrinsics.cy
            residuals.append([uv[0] - u_hat, uv[1] - v_hat])
            j_proj = np.array(
                [
                    [intrinsics.fx / z, 0.0, -intrinsics.fx * p_cam[0] / z**2],
                    [0.0, intrinsics.fy / z, -intrinsics.fy * p_cam[1] / z**2],
                ]
            )
            jacobians.append(j_proj @ r_cw)
        r = np.concatenate(residuals)
        j = np.vstack(jacobians)
        jtj = j.T @ j
        try:
            delta = np.linalg.solve(jtj + 1e-9 * np.eye(3), j.T @ r)
        except np.linalg.LinAlgError:
            return None
        point = point + delta
        if np.linalg.norm(delta) < 1e-6:
            converged = True
            break
    errors = []
    for r_cw, t, uv in cams:
        p_cam = r_cw @ point + t
        if p_cam[2] < 0.05:
            return None
        u_hat = intrinsics.fx * p_cam[0] / p_cam[2] + intrinsics.cx
        v_hat = intrinsics.fy * p_cam[1] / p_cam[2] + intrinsics.cy
        errors.append(np.hypot(uv[0] - u_hat, uv[1] - v_hat))
    mean_error = float(np.mean(errors))
    if not np.all(np.isfinite(point)):
        return None
    return point, mean_error, converged, jtj / max(pixel_sigma**2, 1e-12)


def _oracle_eye_rows(p_base, uv_left, uv_right, baseline_m, intrinsics):
    """Residuals and projection Jacobians of both eyes, or None if too near."""
    rows = []
    for eye_offset, uv in ((0.0, uv_left), (baseline_m, uv_right)):
        p_cam = p_base.copy()
        p_cam[0] -= eye_offset
        z = p_cam[2]
        if z < 0.05:
            return None
        u_hat = intrinsics.fx * p_cam[0] / z + intrinsics.cx
        v_hat = intrinsics.fy * p_cam[1] / z + intrinsics.cy
        j_proj = np.array(
            [
                [intrinsics.fx / z, 0.0, -intrinsics.fx * p_cam[0] / z**2],
                [0.0, intrinsics.fy / z, -intrinsics.fy * p_cam[1] / z**2],
            ]
        )
        rows.append((j_proj, [uv[0] - u_hat, uv[1] - v_hat]))
    return rows


def oracle_feature_jacobians(state, track, feature_position, intrinsics, baseline_m):
    """Residuals and Jacobians stacked clone by clone, eye by eye."""
    rows_r, rows_hx, rows_hf = [], [], []
    window = {clone.clone_id: clone for clone in state.clones}
    for clone_id, (uv_left, uv_right) in sorted(track.observations.items()):
        clone = window.get(clone_id)
        if clone is None:
            continue
        r_wb = quat_to_matrix(clone.orientation)
        y = r_wb.T @ (feature_position - clone.position)
        offset = state.clone_offset(clone_id)
        d_theta = R_CAM_BODY @ skew(y)
        d_pos = -R_CAM_BODY @ r_wb.T
        d_feat = R_CAM_BODY @ r_wb.T
        rows = _oracle_eye_rows(R_CAM_BODY @ y, uv_left, uv_right, baseline_m, intrinsics)
        if rows is None:
            return None
        for j_proj, residual in rows:
            h_row = np.zeros((2, state.dim))
            h_row[:, offset : offset + 3] = j_proj @ d_theta
            h_row[:, offset + 3 : offset + 6] = j_proj @ d_pos
            rows_hx.append(h_row)
            rows_hf.append(j_proj @ d_feat)
            rows_r.extend(residual)
    if not rows_r:
        return None
    return np.asarray(rows_r), np.vstack(rows_hx), np.vstack(rows_hf)


def oracle_landmark_jacobians(state, feature_id, clone_id, uv_left, uv_right, intrinsics, baseline_m):
    feature_position = state.landmarks[feature_id]
    window = {clone.clone_id: clone for clone in state.clones}
    clone = window.get(clone_id)
    if clone is None:
        return None
    r_wb = quat_to_matrix(clone.orientation)
    y = r_wb.T @ (feature_position - clone.position)
    clone_offset = state.clone_offset(clone_id)
    feat_offset = state.landmark_offset(feature_id)
    rows = _oracle_eye_rows(R_CAM_BODY @ y, uv_left, uv_right, baseline_m, intrinsics)
    if rows is None:
        return None
    rows_r, rows_h = [], []
    for j_proj, residual in rows:
        h_row = np.zeros((2, state.dim))
        h_row[:, clone_offset : clone_offset + 3] = j_proj @ (R_CAM_BODY @ skew(y))
        h_row[:, clone_offset + 3 : clone_offset + 6] = j_proj @ (-R_CAM_BODY @ r_wb.T)
        h_row[:, feat_offset : feat_offset + 3] = j_proj @ (R_CAM_BODY @ r_wb.T)
        rows_h.append(h_row)
        rows_r.extend(residual)
    return np.asarray(rows_r), np.vstack(rows_h)


def oracle_propagate(state: VioState, sample: ImuSample, noise: ImuNoise) -> None:
    """``propagate`` with the full-matrix symmetrize."""
    dt = sample.timestamp - state.timestamp
    if dt == 0.0:
        return
    omega = sample.gyro - state.gyro_bias
    accel = sample.accel - state.accel_bias
    rotation = quat_to_matrix(state.orientation)
    f = np.zeros((IMU_DIM, IMU_DIM))
    f[0:3, 9:12] = -np.eye(3)
    f[3:6, 6:9] = np.eye(3)
    f[0:3, 0:3] = -skew(omega)
    f[6:9, 0:3] = -rotation @ skew(accel)
    f[6:9, 12:15] = -rotation
    phi = np.eye(IMU_DIM) + f * dt + 0.5 * (f @ f) * dt * dt
    g = np.zeros((IMU_DIM, 12))
    g[0:3, 0:3] = -np.eye(3)
    g[9:12, 6:9] = np.eye(3)
    g[12:15, 9:12] = np.eye(3)
    g[6:9, 3:6] = -rotation
    qc_diag = np.array(
        [noise.gyro_noise_density**2] * 3
        + [noise.accel_noise_density**2] * 3
        + [noise.gyro_bias_walk**2] * 3
        + [noise.accel_bias_walk**2] * 3
    )
    qd = (g * qc_diag) @ g.T * dt
    p_ii = state.covariance[:IMU_DIM, :IMU_DIM]
    p_ic = state.covariance[:IMU_DIM, IMU_DIM:]
    state.covariance[:IMU_DIM, :IMU_DIM] = phi @ p_ii @ phi.T + qd
    if state.dim > IMU_DIM:
        new_cross = phi @ p_ic
        state.covariance[:IMU_DIM, IMU_DIM:] = new_cross
        state.covariance[IMU_DIM:, :IMU_DIM] = new_cross.T
    state.covariance = 0.5 * (state.covariance + state.covariance.T)
    result = Rk4Integrator(
        IntegratorState(
            timestamp=state.timestamp,
            orientation=state.orientation,
            position=state.position,
            velocity=state.velocity,
            gyro_bias=state.gyro_bias,
            accel_bias=state.accel_bias,
        )
    ).step(sample)
    state.timestamp = result.timestamp
    state.orientation = result.orientation
    state.position = result.position
    state.velocity = result.velocity


def oracle_observations(camera: StereoCamera, rng, pose: Pose):
    """``StereoCamera.observe``'s dict, one ``float()`` per numpy scalar."""
    left = camera.world_to_camera(pose, eye_offset=0.0)
    right = camera.world_to_camera(pose, eye_offset=camera.baseline_m)
    px_left, valid_left = camera.intrinsics.project(left)
    px_right, valid_right = camera.intrinsics.project(right)
    ids = np.flatnonzero(valid_left & valid_right)
    if len(ids) > camera.max_features:
        center = np.array([camera.intrinsics.cx, camera.intrinsics.cy])
        distance = np.linalg.norm(px_left[ids] - center, axis=1)
        ids = ids[np.argsort(distance)[: camera.max_features]]
    noise = rng.normal(0.0, camera.pixel_noise, (len(ids), 4))
    return {
        int(i): (
            float(px_left[i, 0] + noise[k, 0]),
            float(px_left[i, 1] + noise[k, 1]),
            float(px_right[i, 0] + noise[k, 2]),
            float(px_right[i, 1] + noise[k, 3]),
        )
        for k, i in enumerate(ids)
    }


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def peak_relative(got: np.ndarray, want: np.ndarray) -> float:
    """``max|got - want|`` over ``max|want|``."""
    return float(np.abs(got - want).max() / np.abs(want).max())


def assert_close_relative(got, want, rtol):
    """Entrywise ``|got - want| <= rtol * max(|want|, max|want| * 1e-3)``.

    Entries far below the array's scale are compared at a thousandth of it,
    so exact zeros and cancellations do not demand infinite precision.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = np.maximum(np.abs(want), 1e-3 * np.abs(want).max())
    assert np.all(np.abs(got - want) <= rtol * scale), np.max(np.abs(got - want) / scale)


def random_rotation(rng) -> np.ndarray:
    return quat_to_matrix(quat_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi)))


def random_window(rng, clones: int, behind: bool, pixel_noise: float):
    """A feature and its stereo observations from ``clones`` nearby poses."""
    point = np.array([3.0, 0.0, 1.5]) + rng.uniform(-1.0, 1.0, 3)
    if behind:
        point = np.array([-3.0, 0.0, 1.5]) + rng.uniform(-1.0, 1.0, 3)
    observations = []
    for _ in range(clones):
        position = np.array([0.0, 0.0, 1.5]) + rng.normal(0.0, 0.2, 3)
        orientation = quat_from_axis_angle(rng.normal(size=3), rng.normal(0.0, 0.1))
        pixels = []
        for eye_offset in (0.0, BASELINE):
            cam = R_CAM_BODY @ (quat_to_matrix(orientation).T @ (point - position))
            cam[0] -= eye_offset
            if cam[2] < 1e-3:  # behind: keep finite pixels of the mirrored point
                cam[2] = abs(cam[2]) + 0.5
            pixels.append(
                np.array([INTRINSICS.fx * cam[0] / cam[2] + INTRINSICS.cx,
                          INTRINSICS.fy * cam[1] / cam[2] + INTRINSICS.cy])
                + rng.normal(0.0, pixel_noise, 2)
            )
        observations.append(CloneObservation(orientation, position, pixels[0], pixels[1]))
    return point, observations


# ---------------------------------------------------------------------------
# Audio
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seeds, st.lists(st.integers(256, 2048), min_size=1, max_size=4))
def test_speech_blocks_bitwise(seed, sizes):
    source = SpeechLikeSource(seed=seed)
    blocks, lp_state = oracle_speech_blocks(seed, sizes)
    for got, want in zip((source.block(n) for n in sizes), blocks):
        assert got.dtype == np.int16
        assert np.array_equal(got, want)
    # int16 rounding hides last-bit differences; the carried state does not.
    assert source._lp_state == lp_state


@settings(max_examples=30, deadline=None)
@given(
    seeds,
    st.integers(256, 2048),
    st.integers(0, 3),
    st.lists(st.tuples(*[st.floats(-5.0, 5.0)] * 3), min_size=2, max_size=2),
    st.booleans(),
)
def test_encoder_soundfield_matches_per_block_gains(seed, block_size, order, positions, listener):
    """Cached gains and one fused SH product against per-block formulas.

    Sources may sit on the listener (the x-axis fallback), and a listener
    position that moves every block gets fresh gains.
    """
    rng = np.random.default_rng(seed)

    def make_sources():
        speech = SpeechLikeSource(seed=seed % 1000, position=np.array(positions[0]))
        music = MusicLikeSource(seed=seed % 1000 + 1, position=np.array(positions[1]))
        return [speech, music]

    encoder = AudioEncoder(make_sources(), order=order, block_size=block_size)
    oracle_sources = make_sources()
    for _ in range(3):
        where = rng.uniform(-2.0, 2.0, 3) if listener else None
        got = encoder.encode_next_block(where)
        want = oracle_encode(oracle_sources, order, block_size, where)
        if np.abs(want).max() == 0.0:
            assert np.array_equal(got, want)
        else:
            assert peak_relative(got, want) <= 1e-15


def test_encoder_gains_follow_a_moved_source():
    speech = SpeechLikeSource(seed=4)
    encoder = AudioEncoder([speech], order=3, block_size=512)
    oracle = SpeechLikeSource(seed=4)
    for position in ([2.0, 1.0, 1.6], [-1.0, 3.0, 0.5], [2.0, 1.0, 1.6], [0.0, 0.0, 0.0]):
        speech.position = np.array(position)
        oracle.position = np.array(position)
        got = encoder.encode_next_block()
        assert peak_relative(got, oracle_encode([oracle], 3, 512)) <= 1e-15
    # A listener that never stands still keeps the gain cache bounded.
    for step in range(100):
        encoder.encode_next_block(np.array([0.01 * step, 0.0, 0.0]))
    assert len(encoder._gains) <= 64


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 3))
def test_sh_rotation_matrix_matches_least_squares(seed, order):
    rotation = random_rotation(np.random.default_rng(seed))
    got = sh_rotation_matrix(order, rotation)
    want = oracle_sh_rotation_matrix(order, rotation)
    assert np.abs(got - want).max() <= 1e-14
    # Exactly block diagonal, as before.
    for degree in range(order + 1):
        start, stop = degree * degree, (degree + 1) ** 2
        assert not np.any(got[start:stop, stop:])
        assert not np.any(got[stop:, start:stop])


@settings(max_examples=5, deadline=None)
@given(seeds, st.sampled_from([512, 1024]))
def test_playback_stereo_matches_oracle_over_consecutive_blocks(seed, block_size):
    rng = np.random.default_rng(seed)
    encoder = AudioEncoder([SpeechLikeSource(seed=seed % 100), MusicLikeSource()], block_size=block_size)
    playback = AudioPlayback(block_size=block_size)
    oracle = OraclePlayback(block_size)
    got, want = [], []
    for _ in range(32):
        soundfield = encoder.encode_next_block()
        pose = Pose(np.zeros(3), quat_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi)))
        got.append(playback.render_block(soundfield, pose))
        want.append(oracle.render_block(soundfield, pose))
    assert peak_relative(np.array(got), np.array(want)) <= 1e-12


# ---------------------------------------------------------------------------
# Triangulation and Jacobians
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    seeds,
    st.integers(1, 11),
    st.booleans(),
    st.sampled_from([0.0, 0.5, 40.0]),
    st.sampled_from([BASELINE, 0.0]),
    st.sampled_from([5, 1]),
)
def test_triangulate_matches_per_eye_loop(seed, clones, behind, pixel_noise, baseline, iterations):
    """Random windows, points behind the cameras, single clones, zero
    baselines from one pose (rank-deficient) and one-iteration limits
    (non-converging): None in the same cases, values to 1e-12."""
    rng = np.random.default_rng(seed)
    _point, observations = random_window(rng, clones, behind, pixel_noise)
    got = triangulate(observations, INTRINSICS, baseline, max_iterations=iterations, pixel_sigma=1.5)
    want = oracle_triangulate(observations, INTRINSICS, baseline, max_iterations=iterations, pixel_sigma=1.5)
    assert (got is None) == (want is None)
    if got is None:
        return
    position, mean_error, converged, jtj = want
    assert got.converged == converged
    assert_close_relative(got.position, position, 1e-12)
    # Sub-pixel errors of exact pixels are rounding noise: 1e-12 px absolute.
    assert abs(got.mean_reprojection_px - mean_error) <= 1e-12 * max(mean_error, 1.0)
    assert_close_relative(got.jtj, jtj, 1e-12)


def test_triangulate_degenerate_cases():
    rng = np.random.default_rng(3)
    _point, observations = random_window(rng, 1, False, 0.0)
    # One pose, zero baseline: both eyes give the same two rows (rank 2).
    assert triangulate(observations, INTRINSICS, 0.0) is None
    assert oracle_triangulate(observations, INTRINSICS, 0.0) is None
    assert triangulate([], INTRINSICS, BASELINE) is None
    # A point behind every camera.
    _point, behind = random_window(rng, 3, True, 0.0)
    flipped = [CloneObservation(o.orientation, o.position, o.uv_right, o.uv_left) for o in behind]
    assert triangulate(flipped, INTRINSICS, BASELINE) is None
    assert oracle_triangulate(flipped, INTRINSICS, BASELINE) is None


def random_vio_state(rng, clones: int, landmarks: int) -> VioState:
    state = VioState(
        timestamp=0.0,
        orientation=quat_from_axis_angle(rng.normal(size=3), rng.normal(0.0, 0.1)),
        position=np.array([0.0, 0.0, 1.5]),
        velocity=rng.normal(0.0, 0.5, 3),
    )
    for _ in range(clones):
        state.orientation = quat_from_axis_angle(rng.normal(size=3), rng.normal(0.0, 0.1))
        state.position = np.array([0.0, 0.0, 1.5]) + rng.normal(0.0, 0.2, 3)
        state.augment_clone()
    for k in range(landmarks):
        state.landmarks[100 + k] = np.array([3.0, 0.0, 1.5]) + rng.uniform(-1.0, 1.0, 3)
    state.covariance = np.eye(state.dim)
    return state


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 11), st.integers(0, 4), st.booleans(), st.booleans())
def test_feature_jacobians_match_per_clone_loop(seed, clones, landmarks, behind, gaps):
    rng = np.random.default_rng(seed)
    state = random_vio_state(rng, clones, landmarks)
    feature = np.array([3.0 if not behind else -3.0, 0.0, 1.5]) + rng.uniform(-1.0, 1.0, 3)
    track = Track(feature_id=7)
    for clone in state.clones:
        if gaps and rng.random() < 0.4:
            continue
        track.add(clone.clone_id, rng.uniform(0, 640, 2), rng.uniform(0, 640, 2))
    if gaps:
        track.add(10_000, np.zeros(2), np.zeros(2))  # marginalized clone
    got = feature_jacobians(state, track, feature, INTRINSICS, BASELINE)
    want = oracle_feature_jacobians(state, track, feature, INTRINSICS, BASELINE)
    assert (got is None) == (want is None)
    if got is not None:
        for g, w in zip(got, want):
            assert_close_relative(g, w, 1e-12)


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 11), st.integers(1, 4), st.booleans())
def test_landmark_jacobians_match_per_eye_loop(seed, clones, landmarks, behind):
    rng = np.random.default_rng(seed)
    state = random_vio_state(rng, clones, landmarks)
    feature_id = 100 + int(rng.integers(landmarks))
    if behind:
        state.landmarks[feature_id] = np.array([-3.0, 0.0, 1.5])
    clone_id = state.clones[int(rng.integers(clones))].clone_id
    uv_left, uv_right = rng.uniform(0, 640, 2), rng.uniform(0, 640, 2)
    args = (state, feature_id, clone_id, uv_left, uv_right, INTRINSICS, BASELINE)
    got = landmark_jacobians(*args)
    want = oracle_landmark_jacobians(*args)
    assert (got is None) == (want is None)
    if got is not None:
        for g, w in zip(got, want):
            assert_close_relative(g, w, 1e-12)
    assert landmark_jacobians(state, feature_id, 10_000, uv_left, uv_right, INTRINSICS, BASELINE) is None


# ---------------------------------------------------------------------------
# Covariance step and camera
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(0, 11), st.integers(0, 4))
def test_propagate_block_symmetrize_is_bitwise_full_symmetrize(seed, clones, landmarks):
    rng = np.random.default_rng(seed)
    state = random_vio_state(rng, clones, landmarks)
    root = rng.normal(0.0, 0.01, (state.dim, state.dim))
    cov = root @ root.T + 1e-6 * np.eye(state.dim)
    state.covariance = 0.5 * (cov + cov.T)  # exactly symmetric, as in a run
    oracle = VioState(**{k: getattr(state, k) for k in ("timestamp", "orientation", "position", "velocity")})
    oracle.clones, oracle.landmarks = state.clones, state.landmarks
    oracle.covariance = state.covariance.copy()
    noise = ImuNoise()
    for step in range(1, 4):
        sample = ImuSample(
            timestamp=0.002 * step, gyro=rng.normal(0.0, 0.5, 3), accel=rng.normal(0.0, 2.0, 3) + [0, 0, 9.81]
        )
        propagation.propagate(state, sample, noise)
        oracle_propagate(oracle, sample, noise)
        assert np.array_equal(state.covariance, oracle.covariance)
        assert np.array_equal(state.covariance, state.covariance.T)
        assert np.array_equal(state.orientation, oracle.orientation)


@settings(max_examples=20, deadline=None)
@given(seeds, st.sampled_from([0.25, 1.0, 4.0]), st.integers(10, 120))
def test_camera_observation_dict_equal(seed, exposure_ms, max_features):
    rng = np.random.default_rng(seed)
    camera = StereoCamera(LandmarkField(seed=seed % 1000), exposure_ms=exposure_ms, max_features=max_features, seed=seed % 97)
    oracle_rng = np.random.default_rng(seed % 97)
    for k in range(4):
        pose = Pose(
            np.array([0.0, 0.0, 1.5]) + rng.uniform(-2.0, 2.0, 3),
            quat_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi)),
        )
        frame = camera.observe(pose, 0.1 * k)
        want = oracle_observations(camera, oracle_rng, pose)
        assert frame.observations == want
        assert list(frame.observations) == list(want)
        for key, value in frame.observations.items():
            assert type(key) is int and type(value) is tuple
            assert all(type(x) is float for x in value)


# ---------------------------------------------------------------------------
# Whole runs: the covariance is exactly symmetric at every propagate entry
# ---------------------------------------------------------------------------


@pytest.fixture
def symmetry_probe(monkeypatch):
    """Wrap ``propagate``; count entries and asymmetric entries per run."""
    counts = defaultdict(int)
    real = propagation.propagate

    def checked(state, sample, noise):
        counts["entries"] += 1
        if not np.array_equal(state.covariance, state.covariance.T):
            counts["asymmetric"] += 1
        return real(state, sample, noise)

    monkeypatch.setattr(propagation, "propagate", checked)
    return counts


@pytest.mark.parametrize("platform,app", [("desktop", "sponza"), ("jetson-lp", "platformer")])
def test_integrated_runs_enter_propagate_symmetric(symmetry_probe, platform, app):
    from repro import PLATFORMS, SystemConfig, build_runtime

    build_runtime(PLATFORMS[platform], app, SystemConfig(duration_s=2.0, fidelity="full", seed=5)).run()
    assert symmetry_probe["entries"] > 500
    assert symmetry_probe["asymmetric"] == 0


def test_ekf_slam_run_enters_propagate_symmetric(symmetry_probe):
    from repro.perception.vio.ekf_slam import EkfSlamVio
    from repro.perception.vio.msckf import MsckfConfig
    from repro.sensors.dataset import make_vicon_room_dataset

    dataset = make_vicon_room_dataset(duration=3.0, seed=3)
    list(dataset.replay(dataset.start_vio(EkfSlamVio, MsckfConfig.standard())))
    assert symmetry_probe["entries"] > 1000
    assert symmetry_probe["asymmetric"] == 0
