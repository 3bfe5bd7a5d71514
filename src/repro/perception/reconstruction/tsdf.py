"""Truncated signed distance function (TSDF) volume.

The map representation of KinectFusion: a regular voxel grid storing a
truncated signed distance to the nearest surface plus an integration
weight.  Depth frames are fused by projective association: every voxel
projects into the camera, compares its depth to the measured depth, and
blends the truncated difference into its stored value.

Fusion pre-chunks the grid into cubic voxel blocks at construction and
frustum-culls whole blocks against the camera before projecting: a block
whose bounding sphere lies behind the near plane or outside any of the
four image-edge planes cannot contain a voxel that projects into the depth
image, so only the surviving blocks (typically ~10% of the volume for a
70-degree FOV camera inside the workspace) are gathered and projected.
The per-voxel arithmetic on surviving voxels is that of projecting *all*
``N^3`` voxel centers, so the fused grid is **bit-exact** against the
full-grid formulation kept in ``tests/kernel_oracles.py``, which the parity
tests assert with array equality.

The grid itself stays float32 end-to-end; every per-frame temporary is
sized to the surviving-voxel count instead of the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import Pose
from repro.perf import span
from repro.sensors.depth import DepthCamera

# Voxels per cull-block edge; blocks at the far grid edges may be smaller.
_BLOCK_EDGE = 8


@dataclass
class TsdfVolume:
    """A cubic voxel grid over the reconstruction workspace."""

    resolution: int = 96
    extent_m: float = 8.0          # cube edge length
    origin: np.ndarray = field(default_factory=lambda: np.array([-4.0, -4.0, -1.0]))
    truncation_m: float = 0.15
    max_weight: float = 64.0

    def __post_init__(self) -> None:
        if self.resolution < 8:
            raise ValueError(f"resolution too small: {self.resolution}")
        if not 0 < self.extent_m < np.inf:
            raise ValueError(f"extent must be positive and finite: {self.extent_m}")
        if not 0 < self.truncation_m < np.inf:
            raise ValueError(f"truncation must be positive and finite: {self.truncation_m}")
        if not self.max_weight >= 1:
            raise ValueError(f"max weight must be at least 1: {self.max_weight}")
        n = self.resolution
        self.voxel_size = self.extent_m / n
        self.tsdf = np.ones((n, n, n), dtype=np.float32)
        self.weight = np.zeros((n, n, n), dtype=np.float32)
        idx = (np.arange(n) + 0.5) * self.voxel_size
        gx, gy, gz = np.meshgrid(idx, idx, idx, indexing="ij")
        self._centers = (
            np.stack([gx, gy, gz], axis=-1).reshape(-1, 3) + self.origin
        )
        self._build_blocks()

    def _build_blocks(self) -> None:
        """Pre-chunk the grid into cubic blocks for frustum culling.

        Stores a block-major permutation of the flat voxel indices plus a
        bounding sphere (center, radius over the *voxel centers*) and voxel
        count per block.
        """
        n, edge = self.resolution, _BLOCK_EDGE
        n_blocks = -(-n // edge)  # ceil division; edge blocks may be smaller
        grid_index = np.arange(n**3, dtype=np.int64).reshape(n, n, n)
        centers_grid = self._centers.reshape(n, n, n, 3)
        perm_parts = []
        box_centers = []
        radii = []
        sizes = []
        for bi in range(n_blocks):
            i0, i1 = bi * edge, min((bi + 1) * edge, n)
            for bj in range(n_blocks):
                j0, j1 = bj * edge, min((bj + 1) * edge, n)
                for bk in range(n_blocks):
                    k0, k1 = bk * edge, min((bk + 1) * edge, n)
                    perm_parts.append(grid_index[i0:i1, j0:j1, k0:k1].ravel())
                    block = centers_grid[i0:i1, j0:j1, k0:k1].reshape(-1, 3)
                    low, high = block.min(axis=0), block.max(axis=0)
                    center = 0.5 * (low + high)
                    box_centers.append(center)
                    radii.append(float(np.linalg.norm(high - center)))
                    sizes.append(len(block))
        self._block_perm = np.concatenate(perm_parts)
        self._block_centers = np.array(box_centers)
        self._block_radii = np.array(radii)
        self._block_sizes = np.array(sizes)

    @property
    def occupied_fraction(self) -> float:
        """Fraction of voxels that have received any observation."""
        return float((self.weight > 0).mean())

    def _camera_pose_to_extrinsics(
        self, pose: Pose, camera: DepthCamera
    ) -> Tuple[np.ndarray, np.ndarray]:
        r_wb = quat_to_matrix(pose.orientation)
        r_cw = camera._r_cam_body @ r_wb.T
        t = -r_cw @ pose.position
        return r_cw, t

    def _visible_voxels(self, pose: Pose, camera: DepthCamera) -> np.ndarray:
        """Flat indices of voxels whose block may project into the image.

        The cull is conservative: a block is kept unless its bounding
        sphere lies entirely behind the near plane or outside one of the
        four image-edge planes (with one pixel of slack), so no voxel that
        projects into the image is ever dropped.
        """
        r_cw, t = self._camera_pose_to_extrinsics(pose, camera)
        block_cam = self._block_centers @ r_cw.T + t
        radii = self._block_radii
        keep = block_cam[:, 2] + radii > 1e-3
        for normal in (
            (camera.fx, 0.0, camera.cx + 1.0),
            (-camera.fx, 0.0, camera.width + 0.5 - camera.cx),
            (0.0, camera.fy, camera.cy + 1.0),
            (0.0, -camera.fy, camera.height + 0.5 - camera.cy),
        ):
            plane = np.asarray(normal)
            plane = plane / np.linalg.norm(plane)
            keep &= block_cam @ plane > -radii
        return self._block_perm[np.repeat(keep, self._block_sizes)]

    def integrate(self, depth: np.ndarray, pose: Pose, camera: DepthCamera) -> int:
        """Fuse one depth frame taken from ``pose``; returns voxels updated."""
        with span("tsdf.integrate"):
            selected = self._visible_voxels(pose, camera)
            if len(selected) == 0:
                return 0
            r_cw, t = self._camera_pose_to_extrinsics(pose, camera)
            cam = self._centers[selected] @ r_cw.T + t
            z = cam[:, 2]
            in_front = z > 1e-3
            u = np.full(len(z), -1.0)
            v = np.full(len(z), -1.0)
            zs = np.where(in_front, z, 1.0)
            u[in_front] = (camera.fx * cam[in_front, 0] / zs[in_front]) + camera.cx
            v[in_front] = (camera.fy * cam[in_front, 1] / zs[in_front]) + camera.cy
            ui = np.round(u).astype(int)
            vi = np.round(v).astype(int)
            in_image = (
                in_front
                & (ui >= 0)
                & (ui < camera.width)
                & (vi >= 0)
                & (vi < camera.height)
            )
            measured = np.zeros(len(z))
            measured[in_image] = depth[vi[in_image], ui[in_image]]
            valid = in_image & (measured > 1e-3)
            sdf = measured - z
            # Only fuse voxels in front of or just behind the surface.
            fuse = valid & (sdf > -self.truncation_m)
            tsdf_new = np.clip(sdf / self.truncation_m, -1.0, 1.0)

            flat_tsdf = self.tsdf.reshape(-1)
            flat_weight = self.weight.reshape(-1)
            fused_idx = selected[fuse]
            w_old = flat_weight[fused_idx]
            w_new = np.minimum(w_old + 1.0, self.max_weight)
            flat_tsdf[fused_idx] = (
                flat_tsdf[fused_idx] * w_old + tsdf_new[fuse]
            ) / np.maximum(w_new, 1.0)
            flat_weight[fused_idx] = w_new
            return int(fuse.sum())

    def world_to_voxel(self, points: np.ndarray) -> np.ndarray:
        """World coordinates -> continuous voxel indices."""
        return (np.asarray(points, dtype=float) - self.origin) / self.voxel_size - 0.5

    def sample(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Trilinear TSDF interpolation at world ``points`` (N, 3).

        Returns (values, valid) where invalid points (outside the grid or
        unobserved) carry value 1.0.
        """
        n = self.resolution
        v = self.world_to_voxel(points)
        v0 = np.floor(v).astype(int)
        frac = v - v0
        valid = np.all((v0 >= 0) & (v0 < n - 1), axis=1)
        v0c = np.clip(v0, 0, n - 2)
        result = np.zeros(len(v))
        weight_seen = np.ones(len(v), dtype=bool)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = (
                        (frac[:, 0] if dx else 1 - frac[:, 0])
                        * (frac[:, 1] if dy else 1 - frac[:, 1])
                        * (frac[:, 2] if dz else 1 - frac[:, 2])
                    )
                    ix, iy, iz = v0c[:, 0] + dx, v0c[:, 1] + dy, v0c[:, 2] + dz
                    result += w * self.tsdf[ix, iy, iz]
                    weight_seen &= self.weight[ix, iy, iz] > 0
        valid &= weight_seen
        return np.where(valid, result, 1.0), valid

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Central-difference TSDF gradient (surface normal direction)."""
        h = self.voxel_size
        grad = np.zeros((len(points), 3))
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = h
            plus, _ = self.sample(points + offset)
            minus, _ = self.sample(points - offset)
            grad[:, axis] = (plus - minus) / (2 * h)
        return grad
