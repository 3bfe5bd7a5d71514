"""Feature triangulation: linear initialization + Gauss-Newton refinement.

Given a feature's stereo observations from several cloned camera poses,
recover its world position.  The linear stage intersects back-projected
rays in a least-squares sense; Gauss-Newton then minimizes stereo
reprojection error (the SVD / Gauss-Newton / Jacobian work the paper's
Table VI attributes to *feature initialization*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import R_CAM_BODY
from repro.sensors.camera import CameraIntrinsics


@dataclass(frozen=True)
class CloneObservation:
    """One stereo observation of a feature from one cloned pose."""

    orientation: np.ndarray  # clone body-to-world quaternion
    position: np.ndarray     # clone position (world)
    uv_left: np.ndarray      # (2,) pixels
    uv_right: np.ndarray     # (2,) pixels


@dataclass(frozen=True)
class TriangulationResult:
    """A triangulated feature position and its fit quality."""

    position: np.ndarray        # world (3,)
    mean_reprojection_px: float
    converged: bool
    jtj: np.ndarray             # Gauss-Newton normal matrix (3, 3)


# Points nearer than this to a camera are rejected as behind or degenerate.
MIN_DEPTH_M = 0.05


def stereo_projection(
    p_cam: np.ndarray, intrinsics: CameraIntrinsics
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Pixels and projection Jacobians of camera-frame points, one per eye.

    Returns ``(uv, J)``: predicted pixels (n, 2) and the 2x3 Jacobians
    d(u, v)/d(p_cam) (n, 2, 3); None if any point is nearer than
    :data:`MIN_DEPTH_M`.
    """
    xy = p_cam[:, :2]
    z = p_cam[:, 2:]
    if (z < MIN_DEPTH_M).any():
        return None
    f = np.array([intrinsics.fx, intrinsics.fy])
    f_xy = f * xy
    uv = f_xy / z + np.array([intrinsics.cx, intrinsics.cy])
    jac = np.zeros((len(z), 6))  # [du/dx, du/dy, du/dz, dv/dx, dv/dy, dv/dz]
    jac[:, 0::4] = f / z  # du/dx, dv/dy
    jac[:, 2::3] = -f_xy / z**2  # du/dz, dv/dz
    return uv, jac.reshape(-1, 2, 3)


def _window_cameras(
    observations: List[CloneObservation], baseline_m: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Camera poses and pixels of every eye in the clone window.

    Returns ``R_cw`` (K, 3, 3), ``t`` (K, 2, 3) and pixels (K, 2, 2) with
    ``p_cam = R_cw @ p_world + t`` for each clone's left eye (index 0) and
    right eye (index 1, ``baseline_m`` along camera +x).
    """
    r_wb = np.array([quat_to_matrix(obs.orientation) for obs in observations])
    r_cw = R_CAM_BODY @ r_wb.transpose(0, 2, 1)
    positions = np.array([obs.position for obs in observations], dtype=float)
    t = np.repeat((-r_cw @ positions[:, :, None]).transpose(0, 2, 1), 2, axis=1)
    t[:, 1, 0] -= baseline_m
    pixels = np.array([(obs.uv_left, obs.uv_right) for obs in observations], dtype=float)
    return r_cw, t, pixels


def triangulate(
    observations: List[CloneObservation],
    intrinsics: CameraIntrinsics,
    baseline_m: float,
    max_iterations: int = 5,
    pixel_sigma: float = 1.0,
) -> Optional[TriangulationResult]:
    """Triangulate from >=1 stereo observation; None if degenerate.

    Every eye of the window enters each step as one array expression; rows
    run per clone as left u, v, then right u, v.
    """
    if not observations:
        return None
    r_cw, t, pixels = _window_cameras(observations, baseline_m)
    count = len(observations)
    # Linear DLT rows per eye: x * (r3 p + t3) = r1 p + t1, then the same in y.
    xy = (pixels - np.array([intrinsics.cx, intrinsics.cy])) / np.array(
        [intrinsics.fx, intrinsics.fy]
    )
    a = (xy[..., None] * r_cw[:, None, 2:3, :] - r_cw[:, None, :2, :]).reshape(-1, 3)
    b = (t[..., :2] - xy * t[..., 2:3]).ravel()
    solution, _residuals, rank, _sv = np.linalg.lstsq(a, b, rcond=None)
    if rank < 3:
        return None
    point = solution
    pixels = pixels.reshape(-1, 2)

    def project(p_world: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        return stereo_projection(((r_cw @ p_world)[:, None, :] + t).reshape(-1, 3), intrinsics)

    # Gauss-Newton refinement on reprojection error.
    converged = False
    jtj = np.eye(3)
    for _ in range(max_iterations):
        projected = project(point)
        if projected is None:
            return None
        uv, j_proj = projected
        r = (pixels - uv).ravel()
        j = (j_proj.reshape(count, 4, 3) @ r_cw).reshape(-1, 3)
        jtj = j.T @ j
        try:
            delta = np.linalg.solve(jtj + 1e-9 * np.eye(3), j.T @ r)
        except np.linalg.LinAlgError:
            return None
        point = point + delta
        if np.linalg.norm(delta) < 1e-6:
            converged = True
            break

    # Final reprojection error.
    projected = project(point)
    if projected is None:
        return None
    error = pixels - projected[0]
    mean_error = float(np.mean(np.hypot(error[:, 0], error[:, 1])))
    if not np.all(np.isfinite(point)):
        return None
    return TriangulationResult(
        position=point,
        mean_reprojection_px=mean_error,
        converged=converged,
        jtj=jtj / max(pixel_sigma**2, 1e-12),
    )
