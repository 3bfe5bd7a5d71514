"""Surface extraction from the TSDF: surfel cloud export.

ElasticFusion's map is a surfel cloud; this module exports the equivalent
from our TSDF volume by locating zero crossings of the signed distance
along the three axes and refining each by linear interpolation.  Each
surfel carries a position, a normal (TSDF gradient), and a confidence
(integration weight).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perception.reconstruction.tsdf import TsdfVolume


@dataclass(frozen=True)
class SurfelCloud:
    """An extracted surface: positions, normals, confidences."""

    positions: np.ndarray    # (N, 3) world metres
    normals: np.ndarray      # (N, 3) unit vectors
    confidences: np.ndarray  # (N,) integration weights

    def __len__(self) -> int:
        return len(self.positions)

    def save_ply(self, path: str) -> None:
        """Write an ASCII PLY point cloud (openable in MeshLab etc.)."""
        with open(path, "w") as handle:
            handle.write("ply\nformat ascii 1.0\n")
            handle.write(f"element vertex {len(self.positions)}\n")
            for axis in ("x", "y", "z"):
                handle.write(f"property float {axis}\n")
            for axis in ("nx", "ny", "nz"):
                handle.write(f"property float {axis}\n")
            handle.write("property float confidence\nend_header\n")
            for p, n, c in zip(self.positions, self.normals, self.confidences):
                handle.write(
                    f"{p[0]:.4f} {p[1]:.4f} {p[2]:.4f} "
                    f"{n[0]:.3f} {n[1]:.3f} {n[2]:.3f} {c:.1f}\n"
                )


def extract_surfels(
    volume: TsdfVolume, min_weight: float = 1.0, max_surfels: int = 200_000
) -> SurfelCloud:
    """Extract the zero-crossing surface of a TSDF volume.

    For every pair of axis-adjacent observed voxels whose TSDF values
    change sign, emit one surfel at the linearly interpolated crossing.
    """
    if min_weight <= 0:
        raise ValueError("min_weight must be positive")
    tsdf = volume.tsdf
    weight = volume.weight
    observed = weight >= min_weight
    positions = []
    n = volume.resolution

    for axis in range(3):
        # Values of voxel i and its +axis neighbour.
        sl_lo = [slice(0, n - 1) if a == axis else slice(None) for a in range(3)]
        sl_hi = [slice(1, n) if a == axis else slice(None) for a in range(3)]
        v0 = tsdf[tuple(sl_lo)]
        v1 = tsdf[tuple(sl_hi)]
        ok = observed[tuple(sl_lo)] & observed[tuple(sl_hi)] & (np.sign(v0) != np.sign(v1)) & (
            np.abs(v0 - v1) > 1e-9
        )
        idx = np.argwhere(ok)
        if len(idx) == 0:
            continue
        frac = v0[ok] / (v0[ok] - v1[ok])
        base = idx.astype(float)
        base[:, axis] += frac
        # Voxel index -> world: centers at (i + 0.5) * voxel + origin.
        points = (base + 0.5) * volume.voxel_size + volume.origin
        positions.append(points)

    if not positions:
        return SurfelCloud(
            positions=np.zeros((0, 3)), normals=np.zeros((0, 3)), confidences=np.zeros(0)
        )
    points = np.vstack(positions)
    if len(points) > max_surfels:
        stride = len(points) // max_surfels + 1
        points = points[::stride]
    gradients = volume.gradient(points)
    norms = np.linalg.norm(gradients, axis=1, keepdims=True)
    # Drop surfels whose gradient is degenerate (crossings at the edge of
    # the observed region sample into unobserved neighbours).
    keep = norms[:, 0] > 1e-6
    points = points[keep]
    gradients = gradients[keep]
    norms = norms[keep]
    normals = gradients / norms
    # Confidence: integration weight at the surfel.
    voxel = np.clip(
        np.round(volume.world_to_voxel(points)).astype(int), 0, volume.resolution - 1
    )
    confidences = weight[voxel[:, 0], voxel[:, 1], voxel[:, 2]]
    return SurfelCloud(positions=points, normals=normals, confidences=confidences)


def surface_error_vs_scene(
    cloud: SurfelCloud, camera, samples: int = 2000, seed: int = 0
) -> float:
    """Mean distance from surfels to the analytic scene surface.

    Uses the depth camera's geometry: for each sampled surfel, measure the
    signed distance to the nearest room wall / primitive by analytic
    distance functions.  A quality number for the reconstruction benches.
    """
    if len(cloud) == 0:
        return float("nan")
    rng = np.random.default_rng(seed)
    take = rng.choice(len(cloud), size=min(samples, len(cloud)), replace=False)
    points = cloud.positions[take]
    scene = camera.scene
    h = scene.room_half_extent
    # Distance to the room shell (inside the box).
    wall_distance = np.min(
        np.stack(
            [
                h - np.abs(points[:, 0]),
                h - np.abs(points[:, 1]),
                points[:, 2] - 0.0,
                scene.room_height - points[:, 2],
            ]
        ),
        axis=0,
    )
    distance = np.abs(wall_distance)
    for sphere in scene.spheres:
        d = np.abs(np.linalg.norm(points - sphere.center, axis=1) - sphere.radius)
        distance = np.minimum(distance, d)
    for box in scene.boxes:
        center = (box.minimum + box.maximum) / 2
        half = (box.maximum - box.minimum) / 2
        q = np.abs(points - center) - half
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(np.max(q, axis=1), 0.0)
        distance = np.minimum(distance, np.abs(outside + inside))
    return float(np.mean(distance))
