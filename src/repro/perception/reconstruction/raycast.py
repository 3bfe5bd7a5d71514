"""Volume raycasting: predict the model's depth/normals from a pose.

KinectFusion's *surfel prediction* stage: march camera rays through the
TSDF until the signed distance crosses zero, then refine the crossing by
linear interpolation.  The predicted vertex/normal maps are what ICP aligns
each new frame against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maths.se3 import Pose
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.sensors.depth import DepthCamera


@dataclass(frozen=True)
class RaycastResult:
    """Predicted model view from a pose."""

    depth: np.ndarray     # (H, W) metres along camera z, 0 = no surface
    vertices: np.ndarray  # (H, W, 3) world-frame surface points
    normals: np.ndarray   # (H, W, 3) world-frame unit normals
    valid: np.ndarray     # (H, W) bool


def raycast(
    volume: TsdfVolume,
    pose: Pose,
    camera: DepthCamera,
    step_fraction: float = 0.5,
    max_distance: float = 9.0,
    start_distance: float = 0.3,
) -> RaycastResult:
    """March all camera rays through the volume simultaneously.

    Uniform steps of ``step_fraction * truncation`` guarantee no surface
    thinner than the truncation band is skipped; the zero crossing is then
    refined by linear interpolation between the last two samples.  A ray
    leaves the march once it crosses a surface or leaves the volume.
    """
    if not 0.05 <= step_fraction <= 1.0:
        raise ValueError(f"step_fraction out of range: {step_fraction}")
    rays_cam = camera._rays_cam.reshape(-1, 3)
    elongation = np.linalg.norm(rays_cam, axis=1)  # metric dist per unit z
    directions = camera.ray_directions_world(pose).reshape(-1, 3)
    unit_dirs = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    origin = pose.position
    n_rays = len(unit_dirs)
    step = volume.truncation_m * step_fraction

    # Past the volume's cube grown by a voxel, a ray never samples an
    # observed voxel again, so it stops there or at max_distance.
    low = volume.origin - volume.voxel_size
    high = volume.origin + volume.extent_m + volume.voxel_size
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.maximum((low - origin) / unit_dirs, (high - origin) / unit_dirs)
    far[np.isnan(far)] = np.inf
    stop = np.minimum(far.min(axis=1), max_distance)

    # The live set: rays that have neither crossed a surface nor passed
    # their stop.  Every live ray has taken the same steps, so one ``t``
    # holds the distance of all of them.
    t = start_distance
    rays = np.flatnonzero(t <= stop)
    live_dirs = np.ascontiguousarray(unit_dirs[rays].T)  # axis-major, as sample() reads it
    stop = stop[rays]
    prev_value = np.ones(len(rays))
    hit_t = np.zeros(n_rays)
    found = np.zeros(n_rays, dtype=bool)
    max_steps = int((max_distance - start_distance) / step) + 1
    for _ in range(max_steps):
        if len(rays) == 0:
            break
        values, valid = volume.sample((origin[:, None] + live_dirs * t).T)
        crossed = valid & (prev_value > 0) & (values <= 0)
        if np.any(crossed):
            pv = prev_value[crossed]
            frac = pv / np.maximum(pv - values[crossed], 1e-9)
            hit = rays[crossed]
            hit_t[hit] = (t - step) + frac * step
            found[hit] = True
        t = t + step
        live = ~crossed & (t <= stop)
        if live.all():
            prev_value = values
        else:
            rays, live_dirs, stop, prev_value = rays[live], live_dirs[:, live], stop[live], values[live]

    h, w = camera.height, camera.width
    depth = np.zeros(n_rays)
    vertices = np.zeros((n_rays, 3))
    normals = np.zeros((n_rays, 3))
    if np.any(found):
        points = origin + unit_dirs[found] * hit_t[found, None]
        vertices[found] = points
        grad = volume.gradient(points)
        norm = np.linalg.norm(grad, axis=1, keepdims=True)
        normals[found] = grad / np.maximum(norm, 1e-9)
        depth[found] = hit_t[found] / elongation[found]
    return RaycastResult(
        depth=depth.reshape(h, w),
        vertices=vertices.reshape(h, w, 3),
        normals=normals.reshape(h, w, 3),
        valid=found.reshape(h, w),
    )
