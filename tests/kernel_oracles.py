"""Reference formulations of the WGS and TSDF kernels.

A parity oracle for ``tests/test_perf.py`` and ``benchmarks/perf_harness.py``:
the functions below are the per-plane Weighted Gerchberg-Saxton solve and
the full-grid TSDF integrate the production kernels were derived from,
with their bodies unchanged.  Production must match them: the batched WGS
solve to atol 1e-8 (FFT batching reassociates sums), the frustum-culled
TSDF integrate bitwise.  Not collected as a test module.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import Pose
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.sensors.depth import DepthCamera
from repro.visual.hologram import HologramResult, WeightedGerchbergSaxton


class ReferenceWgs:
    """The per-plane WGS solve: ``D`` forward and ``D`` backward FFT pairs
    per iteration, on the transfer functions of a production solver."""

    def __init__(self, solver: WeightedGerchbergSaxton) -> None:
        self.solver = solver
        self.resolution = solver.resolution
        self.depths_m = solver.depths_m
        self._transfer: Dict[float, np.ndarray] = {
            z: solver._transfer_stack[k] for k, z in enumerate(solver.depths_m)
        }

    def propagate(self, field_in: np.ndarray, z: float, forward: bool = True) -> np.ndarray:
        """Angular-spectrum propagation over distance ``z``."""
        h = self._transfer[z]
        if not forward:
            h = np.conj(h)
        return np.fft.ifft2(np.fft.fft2(field_in) * h)

    def solve(
        self, targets: Sequence[np.ndarray], iterations: int = 10, seed: int = 0
    ) -> HologramResult:
        """Run WGS for the per-plane target amplitude images."""
        targets = self.solver._validated_targets(targets)
        n = self.resolution
        task_times: Dict[str, float] = defaultdict(float)
        rng = np.random.default_rng(seed)
        phase = rng.uniform(-np.pi, np.pi, (n, n))
        weights = [np.ones((n, n)) for _ in targets]
        # Normalize targets to unit energy so weighting is meaningful.
        targets = [t / max(np.sqrt((t**2).sum()), 1e-12) for t in targets]

        plane_amps: List[np.ndarray] = [np.zeros((n, n)) for _ in targets]
        for _iteration in range(iterations):
            hologram_field = np.exp(1j * phase)
            plane_fields = []
            t0 = time.perf_counter()
            for z in self.depths_m:
                plane_fields.append(self.propagate(hologram_field, z, forward=True))
            task_times["hologram_to_depth"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            mean_amp = np.mean(
                [float(np.mean(np.abs(f)[t > 0])) if np.any(t > 0) else 0.0
                 for f, t in zip(plane_fields, targets)]
            )
            task_times["sum"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            accumulated = np.zeros((n, n), dtype=complex)
            for k, (z, target) in enumerate(zip(self.depths_m, targets)):
                amp = np.abs(plane_fields[k])
                plane_amps[k] = amp
                # WGS weight update: boost planes that are lagging.  The
                # update is skipped when the plane carries no energy in its
                # target region (plane_mean == 0), stated as an explicit
                # branch rather than a conditional expression trailing the
                # product.
                in_target = target > 0
                if np.any(in_target):
                    plane_mean = float(np.mean(amp[in_target]))
                    if plane_mean > 0:
                        weights[k] = weights[k] * np.where(
                            in_target, (mean_amp + 1e-12) / (amp + 1e-12), 1.0
                        ) ** 0.5
                constrained = weights[k] * target * np.exp(1j * np.angle(plane_fields[k]))
                accumulated += self.propagate(constrained, z, forward=False)
            phase = np.angle(accumulated)
            task_times["depth_to_hologram"] += time.perf_counter() - t0

        # Final forward pass for metrics.
        hologram_field = np.exp(1j * phase)
        efficiencies = []
        plane_means = []
        for k, (z, target) in enumerate(zip(self.depths_m, targets)):
            f = self.propagate(hologram_field, z, forward=True)
            plane_amps[k] = np.abs(f)
            in_target = target > 0
            total = float((np.abs(f) ** 2).sum())
            if np.any(in_target) and total > 0:
                efficiencies.append(float((np.abs(f)[in_target] ** 2).sum()) / total)
                plane_means.append(float(np.mean(np.abs(f)[in_target])))
        return WeightedGerchbergSaxton._result(
            phase, plane_amps, efficiencies, plane_means, iterations, task_times
        )


def integrate_full_grid(volume: TsdfVolume, depth: np.ndarray, pose: Pose, camera: DepthCamera) -> int:
    """Fuse one depth frame by projecting *every* voxel of ``volume``."""
    r_wb = quat_to_matrix(pose.orientation)
    r_cw = camera._r_cam_body @ r_wb.T
    t = -r_cw @ pose.position
    cam = volume._centers @ r_cw.T + t
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
    fuse = valid & (sdf > -volume.truncation_m)
    tsdf_new = np.clip(sdf / volume.truncation_m, -1.0, 1.0)

    flat_tsdf = volume.tsdf.reshape(-1)
    flat_weight = volume.weight.reshape(-1)
    w_old = flat_weight[fuse]
    w_new = np.minimum(w_old + 1.0, volume.max_weight)
    flat_tsdf[fuse] = (flat_tsdf[fuse] * w_old + tsdf_new[fuse]) / np.maximum(w_new, 1.0)
    flat_weight[fuse] = w_new
    return int(fuse.sum())
