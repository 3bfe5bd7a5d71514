"""EKF measurement machinery: Jacobians, nullspace projection, gating,
the Kalman update, and delayed SLAM-landmark initialization.

These are the linear-algebra kernels Table VI of the paper attributes to
the *MSCKF update* and *SLAM update* tasks (SVD/QR, Gauss-Newton residuals,
Jacobians, nullspace projection, chi-squared check, Cholesky solves).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import R_CAM_BODY
from repro.perception.vio.state import CLONE_DIM, IMU_DIM, LANDMARK_DIM, CloneState, VioState
from repro.perception.vio.tracker import Track
from repro.perception.vio.triangulation import stereo_projection
from repro.sensors.camera import CameraIntrinsics


# Row-major [v]x of a 3-vector v is v @ _SKEW_BASIS.
_SKEW_BASIS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


# chi2.ppf(0.95, dof) for dof = 1, 2, ..., CHI2_MAX_DOF, as scipy.stats
# computes it.  The gates see dof 4 (one SLAM landmark from one clone) and
# 4K - 3 (a track seen from K clones, after nullspace projection);
# MsckfConfig keeps K within MAX_TRACK_CLONES.
_CHI2_95 = (
    3.841458820694124, 5.991464547107979, 7.814727903251179, 9.487729036781154,
    11.070497693516351, 12.591587243743977, 14.067140449340169, 15.50731305586545,
    16.918977604620448, 18.307038053275146, 19.67513757268249, 21.02606981748307,
    22.362032494826934, 23.684791304840576, 24.995790139728616, 26.29622760486423,
    27.58711163827534, 28.869299430392623, 30.14352720564616, 31.410432844230918,
    32.670573340917315, 33.92443847144381, 35.17246162690806, 36.41502850180731,
    37.65248413348277, 38.885138659830055, 40.113272069413625, 41.33713815142739,
    42.55696780429269, 43.77297182574219, 44.98534328036513, 46.19425952027847,
    47.39988391908093, 48.602367367294164, 49.80184956820181, 50.99846016571065,
    52.192319730102895, 53.383540622969356, 54.572227758941736, 55.75847927888702,
    56.94238714682408, 58.12403768086803, 59.30351202689981, 60.480886582336446,
    61.65623337627955, 62.829620411408165, 64.00111197221803, 65.17076890356982,
    66.3386488629688, 67.5048065495412, 68.66929391228578, 69.83216033984813,
    70.99345283378227, 72.15321616702309, 73.31149302908324, 74.46832415930936,
    75.62374846937608, 76.7778031560615, 77.93052380523042, 79.08194448784874,
    80.23209784876272, 81.3810151888991, 82.5287265414718, 83.67526074272097,
    84.82064549765667, 85.96490744123096, 87.10807219532191, 88.25016442187412,
    89.39120787250796, 90.53122543488065, 91.67023917605484, 92.80827038310771,
    93.94533960119225, 95.08146666924324, 96.21667075350383, 97.35097037903296,
    98.48438345934042, 99.61692732428385, 100.74861874635032, 101.87947396543588,
    103.00950871222618, 104.13873823027387, 105.26717729686034, 106.39484024272251,
    107.52174097071946, 108.6478929735076, 109.77330935028795, 110.89800282268448,
    112.02198574980785, 113.1452701425554, 114.26786767719355, 115.38978970826685,
    116.51104728087356, 117.63165114234555, 118.75161175336736, 119.87093929856714,
    120.98964369660958, 122.10773460981942, 123.2252214533618, 124.34211340400407,
    125.45841940848237, 126.57414819149433, 127.68930826333825, 128.80390792721767,
    129.91795528622893, 131.0314582500487, 132.14442454133663, 133.25686170186816,
    134.36877709841121, 135.48017792835952, 136.591071225135, 137.7014638633707,
    138.8113625638847, 139.92077389845574, 141.02970429440973, 142.13816003902645,
    143.24614728377486, 144.35367204838508, 145.46074022476483, 146.56735758076744,
    147.67352976381804, 148.77926230440488, 149.88456061944134, 150.98943001550484,
    152.0938756919578, 153.1979027439562, 154.30151616535022, 155.40472085148204,
    156.50752160188514,
)
CHI2_MAX_DOF = len(_CHI2_95)
# The longest track the table can gate: 4 stereo rows per clone, less the
# LANDMARK_DIM rows the nullspace projection removes.
MAX_TRACK_CLONES = (CHI2_MAX_DOF + LANDMARK_DIM) // 4


def chi2_threshold(dof: int) -> float:
    """The 95% chi-squared quantile that gates a ``dof``-row measurement."""
    if not 1 <= dof <= CHI2_MAX_DOF:
        raise ValueError(f"dof must be in [1, {CHI2_MAX_DOF}]: {dof}")
    return _CHI2_95[dof - 1]


def _window_jacobians(
    clones: List[CloneState],
    feature_position: np.ndarray,
    pixels: np.ndarray,
    intrinsics: CameraIntrinsics,
    baseline_m: float,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stereo residuals and Jacobian blocks of one point seen from K clones.

    ``pixels`` (2K, 2) holds each clone's left, then right observation.
    Returns ``(r, H_pose, H_f)``: residuals (4K,) in the order left u, v,
    right u, v per clone; d/d(clone theta, clone p) blocks (K, 4, 6); and
    d/d(feature) blocks (K, 4, 3).  None if any eye sees the point nearer
    than the minimum depth.
    """
    r_bw = np.array([quat_to_matrix(clone.orientation) for clone in clones]).transpose(0, 2, 1)
    positions = np.array([clone.position for clone in clones])
    y = (r_bw @ (feature_position - positions)[:, :, None])[:, :, 0]  # body frame
    p_cam = np.repeat(y @ R_CAM_BODY.T, 2, axis=0)
    p_cam[1::2, 0] -= baseline_m
    projected = stereo_projection(p_cam, intrinsics)
    if projected is None:
        return None
    uv, j_proj = projected
    count = len(clones)
    j_proj = j_proj.reshape(count, 4, 3)
    skew_y = (y @ _SKEW_BASIS).reshape(-1, 3, 3)  # [y]x per clone
    h_f = j_proj @ (R_CAM_BODY @ r_bw)
    h_pose = np.concatenate([j_proj @ (R_CAM_BODY @ skew_y), -h_f], axis=2)
    return (pixels - uv).ravel(), h_pose, h_f


def feature_jacobians(
    state: VioState,
    track: Track,
    feature_position: np.ndarray,
    intrinsics: CameraIntrinsics,
    baseline_m: float,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stack residuals and Jacobians for one feature over its clone window.

    Returns ``(r, H_x, H_f)`` with 4 rows per clone (stereo u, v for both
    eyes), or None if no clone in the current window observed the feature.
    """
    index = {clone.clone_id: i for i, clone in enumerate(state.clones)}
    seen = [
        (index[clone_id], uv_left, uv_right)
        for clone_id, (uv_left, uv_right) in sorted(track.observations.items())
        if clone_id in index
    ]
    if not seen:
        return None
    slots = [i for i, _, _ in seen]
    pixels = np.array([uv for _, uv_left, uv_right in seen for uv in (uv_left, uv_right)])
    blocks = _window_jacobians(
        [state.clones[i] for i in slots], feature_position, pixels, intrinsics, baseline_m
    )
    if blocks is None:
        return None
    residual, h_pose, h_f = blocks
    count = len(slots)
    h_x = np.zeros((4 * count, state.dim))
    rows = np.arange(4 * count).reshape(count, 4, 1)
    columns = (IMU_DIM + CLONE_DIM * np.array(slots))[:, None, None] + np.arange(CLONE_DIM)
    h_x[rows, columns] = h_pose
    return residual, h_x, h_f.reshape(-1, 3)


def nullspace_project(
    residual: np.ndarray, h_x: np.ndarray, h_f: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Project the measurement onto the left nullspace of ``h_f``.

    This removes the feature error from the system (the defining MSCKF
    step), leaving constraints purely on the clone poses.
    """
    m = h_f.shape[0]
    if m <= LANDMARK_DIM:
        return None
    q_full, _ = np.linalg.qr(h_f, mode="complete")
    nullspace = q_full[:, LANDMARK_DIM:]
    return nullspace.T @ residual, nullspace.T @ h_x


def chi2_gate(
    residual: np.ndarray, h: np.ndarray, covariance: np.ndarray, pixel_sigma: float
) -> bool:
    """Mahalanobis gating: True if the measurement is statistically sane."""
    s = h @ covariance @ h.T + pixel_sigma**2 * np.eye(len(residual))
    try:
        solved = np.linalg.solve(s, residual)
    except np.linalg.LinAlgError:
        return False
    gamma = float(residual @ solved)
    return gamma < chi2_threshold(len(residual))


def compress_measurements(
    residual: np.ndarray, h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Thin-QR measurement compression when rows exceed the state dim.

    An orthogonal transform preserves the isotropic measurement noise, so
    the compressed system is statistically equivalent.
    """
    if h.shape[0] <= h.shape[1]:
        return residual, h
    q, r_mat = np.linalg.qr(h, mode="reduced")
    return q.T @ residual, r_mat


def ekf_update(
    state: VioState, residual: np.ndarray, h: np.ndarray, pixel_sigma: float
) -> None:
    """Joseph-form EKF update, applied to the state in place."""
    if h.shape != (len(residual), state.dim):
        raise ValueError(f"H shape {h.shape} inconsistent with r ({len(residual)},) and dim {state.dim}")
    residual, h = compress_measurements(residual, h)
    p = state.covariance
    r_noise = pixel_sigma**2 * np.eye(len(residual))
    s = h @ p @ h.T + r_noise
    try:
        k = np.linalg.solve(s.T, (p @ h.T).T).T  # K = P H^T S^-1
    except np.linalg.LinAlgError:
        return
    delta = k @ residual
    i_kh = np.eye(state.dim) - k @ h
    state.covariance = i_kh @ p @ i_kh.T + k @ r_noise @ k.T
    state.inject(delta)
    state.symmetrize()


def initialize_landmark(
    state: VioState,
    feature_id: int,
    position: np.ndarray,
    residual: np.ndarray,
    h_x: np.ndarray,
    h_f: np.ndarray,
    pixel_sigma: float,
) -> bool:
    """Delayed initialization of an EKF-SLAM landmark.

    QR-split ``h_f = [Q_f Q_n] [R_f; 0]``: the ``Q_f`` rows determine the
    landmark (giving its covariance and cross-covariance consistently);
    the ``Q_n`` rows are a feature-free MSCKF update applied first.
    Returns False (and adds nothing) if the geometry is degenerate.
    """
    m = h_f.shape[0]
    if m < LANDMARK_DIM:
        return False
    q_full, r_full = np.linalg.qr(h_f, mode="complete")
    r_f = r_full[:LANDMARK_DIM, :]
    if np.min(np.abs(np.diag(r_f))) < 1e-6:
        return False
    q_f = q_full[:, :LANDMARK_DIM]
    q_n = q_full[:, LANDMARK_DIM:]

    # MSCKF-style update from the nullspace rows (uses the pre-init state).
    if q_n.shape[1] > 0:
        r_null = q_n.T @ residual
        h_null = q_n.T @ h_x
        if chi2_gate(r_null, h_null, state.covariance, pixel_sigma):
            ekf_update(state, r_null, h_null, pixel_sigma)

    # Landmark block: f_err = R_f^-1 (Q_f^T r - Q_f^T H_x dx - noise).
    p = state.covariance
    old_dim = state.dim
    rf_inv = np.linalg.inv(r_f)
    h_proj = q_f.T @ h_x                       # (3, old_dim)
    p_xf = -p @ h_proj.T @ rf_inv.T            # (old_dim, 3)
    p_ff = rf_inv @ (h_proj @ p @ h_proj.T + pixel_sigma**2 * np.eye(LANDMARK_DIM)) @ rf_inv.T
    mean_correction = rf_inv @ (q_f.T @ residual)

    new_cov = np.zeros((old_dim + LANDMARK_DIM, old_dim + LANDMARK_DIM))
    new_cov[:old_dim, :old_dim] = p
    new_cov[:old_dim, old_dim:] = p_xf
    new_cov[old_dim:, :old_dim] = p_xf.T
    new_cov[old_dim:, old_dim:] = p_ff
    state.covariance = new_cov
    state.landmarks[feature_id] = np.asarray(position, dtype=float) + mean_correction
    state.symmetrize()
    return True


def landmark_jacobians(
    state: VioState,
    feature_id: int,
    clone_id: int,
    uv_left: np.ndarray,
    uv_right: np.ndarray,
    intrinsics: CameraIntrinsics,
    baseline_m: float,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Residual + Jacobian for one SLAM landmark seen from one clone."""
    feature_position = state.landmarks[feature_id]
    clone = next((clone for clone in state.clones if clone.clone_id == clone_id), None)
    if clone is None:
        return None
    clone_offset = state.clone_offset(clone_id)
    feat_offset = state.landmark_offset(feature_id)
    blocks = _window_jacobians(
        [clone], feature_position, np.array([uv_left, uv_right], dtype=float), intrinsics, baseline_m
    )
    if blocks is None:
        return None
    residual, h_pose, h_f = blocks
    h = np.zeros((4, state.dim))
    h[:, clone_offset : clone_offset + CLONE_DIM] = h_pose[0]
    h[:, feat_offset : feat_offset + LANDMARK_DIM] = h_f[0]
    return residual, h
