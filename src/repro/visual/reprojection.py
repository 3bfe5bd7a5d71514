"""Asynchronous reprojection (TimeWarp, [39] in the paper).

Corrects the application's rendered frame for the latency of rendering:
the frame was drawn from a stale pose; reprojection warps it to the fresh
pose read just before vsync.

- :func:`rotational_reproject` -- the paper's shipped variant: a pure
  rotation homography (6 matrix-vector multiplies per vertex in the real
  shader; here one 3x3 homography applied to the pixel grid).
- :func:`translational_reproject` -- positional reprojection using the
  rendered depth (the variant ILLIXR added after the paper; §II-A).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import R_CAM_BODY, Pose


def bilinear_sample(image: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Sample ``image`` at float pixel ``coords`` (..., 2) = (u, v).

    Out-of-bounds samples return black -- the visible edge artifact of a
    real timewarp when the pose moved beyond the rendered field of view.
    """
    h, w = image.shape[:2]
    u = coords[..., 0]
    v = coords[..., 1]
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    u0c = np.clip(np.floor(u).astype(int), 0, w - 2)
    v0c = np.clip(np.floor(v).astype(int), 0, h - 2)
    du = (u - u0c)[..., None] if image.ndim == 3 else (u - u0c)
    dv = (v - v0c)[..., None] if image.ndim == 3 else (v - v0c)
    p00 = image[v0c, u0c]
    p01 = image[v0c, u0c + 1]
    p10 = image[v0c + 1, u0c]
    p11 = image[v0c + 1, u0c + 1]
    top = p00 * (1 - du) + p01 * du
    bottom = p10 * (1 - du) + p11 * du
    out = top * (1 - dv) + bottom * dv
    mask = valid if image.ndim == 2 else valid[..., None]
    return np.where(mask, out, 0.0)


def _camera_rotation(pose: Pose) -> np.ndarray:
    """World-from-camera rotation at ``pose``."""
    return quat_to_matrix(pose.orientation) @ R_CAM_BODY.T


def rotational_reproject(
    image: np.ndarray,
    intrinsics: np.ndarray,
    render_pose: Pose,
    display_pose: Pose,
) -> np.ndarray:
    """Warp ``image`` (rendered at ``render_pose``) to ``display_pose``.

    Pure-rotation homography ``H = K R_rel K^-1``; translation between the
    poses is ignored (that is rotational TimeWarp's defining
    approximation).
    """
    k = np.asarray(intrinsics, dtype=float)
    r_render = _camera_rotation(render_pose)
    r_display = _camera_rotation(display_pose)
    r_rel = r_render.T @ r_display  # display-camera dirs -> render-camera dirs
    homography = k @ r_rel @ np.linalg.inv(k)
    h, w = image.shape[:2]
    u, v = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    pixels = np.stack([u, v, np.ones_like(u)], axis=-1)
    warped = pixels @ homography.T
    z = warped[..., 2]
    behind = z <= 1e-9
    z_safe = np.where(behind, 1.0, z)
    coords = warped[..., :2] / z_safe[..., None]
    coords[behind] = -1e9  # force out-of-bounds -> black
    return bilinear_sample(image, coords)


def translational_reproject(
    image: np.ndarray,
    depth: np.ndarray,
    intrinsics: np.ndarray,
    render_pose: Pose,
    display_pose: Pose,
    iterations: int = 2,
) -> np.ndarray:
    """Positional reprojection: warp with parallax using rendered depth.

    Inverse warping needs display-frame depth, which does not exist; the
    standard trick is fixed-point iteration: start from the rotational
    solution, sample the render-pose depth there, correct the source
    coordinate by the reprojection error, repeat.
    """
    if depth.shape != image.shape[:2]:
        raise ValueError(f"depth {depth.shape} does not match image {image.shape[:2]}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    k = np.asarray(intrinsics, dtype=float)
    k_inv = np.linalg.inv(k)
    r_render = _camera_rotation(render_pose)
    r_display = _camera_rotation(display_pose)
    t_render = render_pose.position
    t_display = display_pose.position

    h, w = image.shape[:2]
    u, v = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    target = np.stack([u, v], axis=-1)
    pixels_h = np.stack([u, v, np.ones_like(u)], axis=-1)

    # Initial guess: rotation-only source coordinates.
    r_rel = r_render.T @ r_display
    warped = pixels_h @ (k @ r_rel @ k_inv).T
    z0 = np.maximum(warped[..., 2], 1e-9)
    source = warped[..., :2] / z0[..., None]

    for _ in range(iterations):
        z_sample = bilinear_sample(depth, source)
        z_sample = np.where(z_sample > 1e-6, z_sample, 1e6)  # misses = far
        # Reconstruct the world point seen at the current source coords.
        src_h = np.concatenate([source, np.ones_like(z_sample)[..., None]], axis=-1)
        rays_render = src_h @ k_inv.T
        points_world = (rays_render * z_sample[..., None]) @ r_render.T + t_render
        # Project into the display camera.
        cam_display = (points_world - t_display) @ r_display
        z_disp = np.maximum(cam_display[..., 2], 1e-9)
        projected = (cam_display @ k.T)[..., :2] / z_disp[..., None]
        # Correct the source by the projection error.
        source = source + (target - projected)

    return bilinear_sample(image, source)


def reprojection_artifact_mask(
    intrinsics: np.ndarray, shape: Tuple[int, int], render_pose: Pose, display_pose: Pose
) -> np.ndarray:
    """Boolean mask of pixels that fall outside the rendered frame after
    rotational warping (the black-border artifact)."""
    k = np.asarray(intrinsics, dtype=float)
    r_rel = _camera_rotation(render_pose).T @ _camera_rotation(display_pose)
    homography = k @ r_rel @ np.linalg.inv(k)
    h, w = shape
    u, v = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    pixels = np.stack([u, v, np.ones_like(u)], axis=-1)
    warped = pixels @ homography.T
    z = warped[..., 2]
    coords = warped[..., :2] / np.where(z <= 1e-9, 1.0, z)[..., None]
    outside = (
        (z <= 1e-9)
        | (coords[..., 0] < 0)
        | (coords[..., 0] >= w)
        | (coords[..., 1] < 0)
        | (coords[..., 1] >= h)
    )
    return outside
