"""Point-to-plane ICP pose estimation against the model prediction.

KinectFusion's tracking stage: align the new frame's vertex map to the
raycast model via projective data association, minimizing the
point-to-plane error with small-angle Gauss-Newton steps on SE(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maths.quaternion import matrix_to_quat, quat_to_matrix
from repro.maths.se3 import R_CAM_BODY, Pose, so3_exp, so3_log
from repro.perception.reconstruction.raycast import RaycastResult
from repro.sensors.depth import DepthCamera


@dataclass(frozen=True)
class IcpResult:
    """Outcome of one frame-to-model alignment."""

    pose: Pose
    iterations: int
    mean_residual_m: float
    inlier_fraction: float
    converged: bool


def vertex_map_from_depth(depth: np.ndarray, camera: DepthCamera) -> np.ndarray:
    """Camera-frame vertex map (H, W, 3) from a depth image."""
    return camera._rays_cam * depth[..., None]


def icp_point_to_plane(
    depth: np.ndarray,
    camera: DepthCamera,
    initial_pose: Pose,
    model: RaycastResult,
    model_pose: Pose,
    iterations: int = 8,
    max_correspondence_m: float = 0.25,
    convergence_m: float = 1e-4,
    rotation_prior_weight: float = 0.5,
    translation_prior_weight: float = 0.15,
) -> IcpResult:
    """Align ``depth`` (taken near ``initial_pose``) to the ``model`` view.

    ``model`` was raycast from ``model_pose``; data association projects
    the current frame's points into that view.

    The prior weights (per correspondence) pull the solution toward
    ``initial_pose``: the guess comes from the IMU-aided odometry prior, so
    its *rotation* is trustworthy -- regularizing rotation suppresses the
    in-plane ambiguity of point-to-plane ICP on planar scenes and the
    correlated surface bias of a coarse TSDF.
    """
    vertices_cam = vertex_map_from_depth(depth, camera)
    # Frame normals (camera frame) for normal-agreement gating.
    dx = np.diff(vertices_cam, axis=1, append=vertices_cam[:, -1:])
    dy = np.diff(vertices_cam, axis=0, append=vertices_cam[-1:])
    frame_normals_cam = np.cross(dx, dy).reshape(-1, 3)
    fn_norm = np.linalg.norm(frame_normals_cam, axis=1, keepdims=True)
    frame_normals_cam = frame_normals_cam / np.maximum(fn_norm, 1e-9)
    vertices_cam = vertices_cam.reshape(-1, 3)
    frame_valid = depth.reshape(-1) > 1e-3

    # Model camera for projective association.
    r_model = quat_to_matrix(model_pose.orientation)
    r_cw_model = R_CAM_BODY @ r_model.T
    t_model = -r_cw_model @ model_pose.position

    rotation = quat_to_matrix(initial_pose.orientation)
    translation = initial_pose.position.copy()
    model_vertices = model.vertices.reshape(-1, 3)
    model_normals = model.normals.reshape(-1, 3)
    model_valid = model.valid.reshape(-1)

    mean_residual = np.inf
    inlier_fraction = 0.0
    converged = False
    iteration = 0
    for iteration in range(1, iterations + 1):
        # Current frame points -> world (current estimate).
        points_world = (vertices_cam @ R_CAM_BODY) @ rotation.T + translation
        # Project into the model view for association.
        cam = points_world @ r_cw_model.T + t_model
        z = cam[:, 2]
        ok = frame_valid & (z > 1e-3)
        u = np.round(camera.fx * cam[:, 0] / np.where(ok, z, 1.0) + camera.cx).astype(int)
        v = np.round(camera.fy * cam[:, 1] / np.where(ok, z, 1.0) + camera.cy).astype(int)
        ok &= (u >= 0) & (u < camera.width) & (v >= 0) & (v < camera.height)
        flat = np.where(ok, v * camera.width + u, 0)
        ok &= model_valid[flat]
        q = model_vertices[flat]
        n = model_normals[flat]
        residual = np.einsum("ij,ij->i", points_world - q, n)
        ok &= np.abs(residual) < max_correspondence_m
        # Normal-agreement gating: frame and model normals must align
        # (rejects edge pixels and gross mis-associations).
        frame_normals_world = (frame_normals_cam @ R_CAM_BODY) @ rotation.T
        agreement = np.abs(np.einsum("ij,ij->i", frame_normals_world, n))
        ok &= agreement > 0.7
        count = int(ok.sum())
        if count < 30:
            break
        p = points_world[ok]
        nn = n[ok]
        r = residual[ok]
        # Huber weights temper the TSDF's correlated surface bias.
        huber_delta = 0.02
        sqrt_w = np.sqrt(
            np.where(np.abs(r) <= huber_delta, 1.0, huber_delta / np.abs(r))
        )
        # Linearize about the point centroid: decouples rotation from
        # translation (rotating about the world origin has huge lever arms
        # that stall damped Gauss-Newton).
        centroid = p.mean(axis=0)
        j = np.hstack([np.cross(p - centroid, nn), nn]) * sqrt_w[:, None]
        r_w = r * sqrt_w
        a = j.T @ j
        b = -j.T @ r_w
        # Prior toward the initial pose (see docstring): penalize the
        # accumulated deviation so it cannot drift across iterations.
        r_guess = quat_to_matrix(initial_pose.orientation)
        rot_dev = so3_log(rotation @ r_guess.T)
        trans_dev = translation - initial_pose.position
        a[:3, :3] += rotation_prior_weight * count * np.eye(3)
        b[:3] += -rotation_prior_weight * count * rot_dev
        a[3:, 3:] += translation_prior_weight * count * np.eye(3)
        b[3:] += -translation_prior_weight * count * trans_dev
        try:
            # Levenberg-style damping keeps sliding directions (planar
            # scenes under-constrain the solve) from exploding the step.
            damping = 1e-4 * np.trace(a) / 6.0 + 1e-9
            twist = np.linalg.solve(a + damping * np.eye(6), b)
        except np.linalg.LinAlgError:
            break
        step_norm = np.linalg.norm(twist)
        if step_norm > 0.3:
            twist = twist * (0.3 / step_norm)
        omega, vel = twist[:3], twist[3:]
        delta_r = so3_exp(omega)
        rotation = delta_r @ rotation
        translation = delta_r @ (translation - centroid) + centroid + vel
        mean_residual = float(np.abs(r).mean())
        inlier_fraction = count / max(int(frame_valid.sum()), 1)
        if np.linalg.norm(twist) < convergence_m:
            converged = True
            break

    pose = Pose(
        position=translation,
        orientation=matrix_to_quat(rotation),
        timestamp=initial_pose.timestamp,
    )
    return IcpResult(
        pose=pose,
        iterations=iteration,
        mean_residual_m=mean_residual if np.isfinite(mean_residual) else 0.0,
        inlier_fraction=inlier_fraction,
        converged=converged,
    )
