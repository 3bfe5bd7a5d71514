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
sized to the surviving-voxel count instead of the full grid.  No other
per-voxel table is kept: a voxel's center is gathered from the per-axis
``_axes`` table by its flat index when fusion needs it, and the block
permutation holds int32 indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import R_CAM_BODY, Pose
from repro.perf import span
from repro.sensors.depth import DepthCamera

# Voxels per cull-block edge; blocks at the far grid edges may be smaller.
_BLOCK_EDGE = 8
# The largest grid whose flat voxel indices (up to n^3 - 1) fit in int32.
_MAX_RESOLUTION = 1290


def _extrinsics(pose: Pose) -> Tuple[np.ndarray, np.ndarray]:
    """``(R_cw, t)`` with ``p_cam = R_cw @ p_world + t`` for a camera at ``pose``."""
    r_cw = R_CAM_BODY @ quat_to_matrix(pose.orientation).T
    return r_cw, -r_cw @ pose.position


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
        if self.resolution > _MAX_RESOLUTION:
            raise ValueError(
                f"resolution too large for int32 voxel indices: {self.resolution}"
            )
        if not 0 < self.extent_m < np.inf:
            raise ValueError(f"extent must be positive and finite: {self.extent_m}")
        if not 0 < self.truncation_m < np.inf:
            raise ValueError(f"truncation must be positive and finite: {self.truncation_m}")
        if not self.max_weight >= 1:
            raise ValueError(f"max weight must be at least 1: {self.max_weight}")
        n = self.resolution
        self.origin = np.asarray(self.origin, dtype=float)
        self.voxel_size = self.extent_m / n
        self.tsdf = np.ones((n, n, n), dtype=np.float32)
        self.weight = np.zeros((n, n, n), dtype=np.float32)
        # axes[i, k]: coordinate k of the centers of voxel layer i.
        self._axes = ((np.arange(n) + 0.5) * self.voxel_size)[:, None] + self.origin
        self._build_blocks(self._axes)
        # Flat-index offsets of a cell's 8 corners, in (dx, dy, dz) order.
        self._corner_offsets = np.array(
            [dx * n * n + dy * n + dz for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
        )

    def _build_blocks(self, axes: np.ndarray) -> None:
        """Pre-chunk the grid into cubic blocks for frustum culling.

        Stores a block-major permutation of the flat voxel indices (int32)
        plus a bounding sphere (center, radius over the *voxel centers*) and
        voxel count per block.  ``axes[i, k]`` is coordinate k of the centers
        of voxel layer i.
        """
        n, edge = self.resolution, _BLOCK_EDGE
        n_blocks = -(-n // edge)  # ceil division; edge blocks may be smaller
        # Pad the index grid to whole blocks with -1, reorder it block-major
        # and drop the padding: each block keeps its voxels in C order.
        padded = np.full((n_blocks * edge,) * 3, -1, dtype=np.int32)
        padded[:n, :n, :n] = np.arange(n**3, dtype=np.int32).reshape(n, n, n)
        perm = padded.reshape((n_blocks, edge) * 3).transpose(0, 2, 4, 1, 3, 5).ravel()
        self._block_perm = perm[perm >= 0]
        # A block's voxel centers span its first to its last layer per axis.
        first = np.arange(n_blocks) * edge
        last = np.minimum(first + edge, n) - 1

        def per_block(layers: np.ndarray) -> np.ndarray:
            """(n_blocks, 3) per-axis values -> one (x, y, z) row per block."""
            return np.stack(np.meshgrid(*layers.T, indexing="ij"), axis=-1).reshape(-1, 3)

        low, high = per_block(axes[first]), per_block(axes[last])
        self._block_centers = 0.5 * (low + high)
        half = high - self._block_centers
        # One BLAS dot per row, as np.linalg.norm forms for one vector, so
        # each radius is bitwise the per-block norm.
        self._block_radii = np.sqrt((half[:, None, :] @ half[:, :, None]).ravel())
        sizes = last - first + 1
        self._block_sizes = np.einsum("i,j,k->ijk", sizes, sizes, sizes).ravel()

    def _voxel_centers(self, flat: np.ndarray) -> np.ndarray:
        """World centers (len(flat), 3) of the voxels at C-order flat indices."""
        centers = np.empty((len(flat), 3))
        for k, layer in enumerate(np.unravel_index(flat, (self.resolution,) * 3)):
            centers[:, k] = self._axes[layer, k]
        return centers

    @property
    def occupied_fraction(self) -> float:
        """Fraction of voxels that have received any observation."""
        return float((self.weight > 0).mean())

    def _visible_voxels(self, pose: Pose, camera: DepthCamera) -> np.ndarray:
        """Flat indices of voxels whose block may project into the image.

        The cull is conservative: a block is kept unless its bounding
        sphere lies entirely behind the near plane or outside one of the
        four image-edge planes (with one pixel of slack), so no voxel that
        projects into the image is ever dropped.
        """
        r_cw, t = _extrinsics(pose)
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
            r_cw, t = _extrinsics(pose)
            cam = self._voxel_centers(selected) @ r_cw.T + t
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
            # A running average over every fusion, the newest weighted as
            # one observation; the stored weight saturates at max_weight.
            flat_tsdf[fused_idx] = (
                flat_tsdf[fused_idx] * w_old + tsdf_new[fuse]
            ) / (w_old + 1.0)
            flat_weight[fused_idx] = np.minimum(w_old + 1.0, self.max_weight)
            return int(fuse.sum())

    def world_to_voxel(self, points: np.ndarray) -> np.ndarray:
        """World coordinates -> continuous voxel indices."""
        return (np.asarray(points, dtype=float) - self.origin) / self.voxel_size - 0.5

    def sample(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Trilinear TSDF interpolation at world ``points`` (N, 3).

        Returns (values, valid) where invalid points (outside the grid or
        unobserved) carry value 1.0.  Column-major ``points`` (such as
        ``rows.T`` of a (3, N) array) are read without a copy.
        """
        n = self.resolution
        # (3, N): one row per axis, so every pass below runs along long rows.
        v = self.world_to_voxel(np.asfortranarray(points, dtype=float)).T
        v0 = np.floor(v).astype(int)
        frac = v - v0
        v0c = np.clip(v0, 0, n - 2)
        valid = (v0 == v0c).all(axis=0)
        # Flat indices of the cell's 8 corners, one row per corner.
        corners = ((v0c[0] * n + v0c[1]) * n + v0c[2]) + self._corner_offsets[:, None]
        valid &= (self.weight.reshape(-1).take(corners) > 0).all(axis=0)
        # Corner weights (x * y) * z, sharing the x * y products.
        along = np.stack([1 - frac, frac])  # (2, 3, N): [far side, axis]
        xy = along[:, None, 0] * along[None, :, 1]
        weights = (xy[:, :, None] * along[None, None, :, 2]).reshape(8, -1)
        terms = weights * self.tsdf.reshape(-1).take(corners)
        result = np.zeros(len(valid))
        for term in terms:
            result += term
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
