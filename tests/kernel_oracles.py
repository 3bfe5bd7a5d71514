"""Reference formulations of the hot-path kernels.

A parity oracle for ``tests/test_perf.py``: the functions below are the
formulations the production kernels were derived from -- the per-plane
Weighted Gerchberg-Saxton solve, the full-grid TSDF integrate, the all-rays
renderer, the full-set TSDF raycast with its per-corner trilinear sample,
the block-by-block cull-block setup, the per-offset eye-tracker im2col,
and the one-call convolution backward with the training loop that kept
every layer's patches to the end of the step.  Their bodies are the
production bodies they replaced, except that the raycast samples through
:func:`sample_reference` and the integrate carries production's
saturated-weight averaging.  Production must match them: the batched WGS
solve to atol 1e-8 (FFT batching reassociates sums), everything else
bitwise.  Not collected as a test module.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.maths.quaternion import quat_rotate, quat_to_matrix
from repro.maths.se3 import R_CAM_BODY, Pose
from repro.perception.eye_tracking import ConvLayer, EyeTracker
from repro.perception.reconstruction.raycast import RaycastResult
from repro.perception.reconstruction.tsdf import _BLOCK_EDGE, TsdfVolume
from repro.sensors.depth import DepthCamera
from repro.sensors.eye import EyeImageGenerator
from repro.visual.hologram import HologramResult, WeightedGerchbergSaxton
from repro.visual.renderer import RenderedFrame, Renderer, _box_hit


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


def voxel_centers_reference(volume: TsdfVolume) -> np.ndarray:
    """The (n^3, 3) table of every voxel's world center, in C order."""
    n = volume.resolution
    axes = ((np.arange(n) + 0.5) * volume.voxel_size)[:, None] + volume.origin
    centers = np.empty((n, n, n, 3))
    centers[..., 0] = axes[:, None, None, 0]
    centers[..., 1] = axes[None, :, None, 1]
    centers[..., 2] = axes[None, None, :, 2]
    return centers.reshape(-1, 3)


def integrate_full_grid(volume: TsdfVolume, depth: np.ndarray, pose: Pose, camera: DepthCamera) -> int:
    """Fuse one depth frame by projecting *every* voxel of ``volume``."""
    r_wb = quat_to_matrix(pose.orientation)
    r_cw = R_CAM_BODY @ r_wb.T
    t = -r_cw @ pose.position
    cam = voxel_centers_reference(volume) @ r_cw.T + t
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
    flat_tsdf[fuse] = (flat_tsdf[fuse] * w_old + tsdf_new[fuse]) / (w_old + 1.0)
    flat_weight[fuse] = np.minimum(w_old + 1.0, volume.max_weight)
    return int(fuse.sum())


def build_blocks_reference(volume: TsdfVolume) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``TsdfVolume._build_blocks`` one block at a time: returns the
    block-major permutation, block centers, radii and voxel counts."""
    n, edge = volume.resolution, _BLOCK_EDGE
    n_blocks = -(-n // edge)  # ceil division; edge blocks may be smaller
    grid_index = np.arange(n**3, dtype=np.int32).reshape(n, n, n)
    centers_grid = voxel_centers_reference(volume).reshape(n, n, n, 3)
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
    return np.concatenate(perm_parts), np.array(box_centers), np.array(radii), np.array(sizes)


def sample_reference(volume: TsdfVolume, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``TsdfVolume.sample`` with one 3-D gather per corner and grid."""
    n = volume.resolution
    v = volume.world_to_voxel(points)
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
                result += w * volume.tsdf[ix, iy, iz]
                weight_seen &= volume.weight[ix, iy, iz] > 0
    valid &= weight_seen
    return np.where(valid, result, 1.0), valid


def gradient_reference(volume: TsdfVolume, points: np.ndarray) -> np.ndarray:
    """``TsdfVolume.gradient`` over :func:`sample_reference`."""
    h = volume.voxel_size
    grad = np.zeros((len(points), 3))
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = h
        plus, _ = sample_reference(volume, points + offset)
        minus, _ = sample_reference(volume, points - offset)
        grad[:, axis] = (plus - minus) / (2 * h)
    return grad


def raycast_reference(
    volume: TsdfVolume,
    pose: Pose,
    camera: DepthCamera,
    step_fraction: float = 0.5,
    max_distance: float = 9.0,
    start_distance: float = 0.3,
) -> RaycastResult:
    """The raycast that re-masks every ray at every step."""
    if not 0.05 <= step_fraction <= 1.0:
        raise ValueError(f"step_fraction out of range: {step_fraction}")
    rays_cam = camera._rays_cam.reshape(-1, 3)
    elongation = np.linalg.norm(rays_cam, axis=1)  # metric dist per unit z
    directions = camera.ray_directions_world(pose).reshape(-1, 3)
    unit_dirs = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    origin = pose.position
    n_rays = len(unit_dirs)
    step = volume.truncation_m * step_fraction

    t = np.full(n_rays, start_distance)
    prev_value = np.ones(n_rays)
    hit_t = np.zeros(n_rays)
    found = np.zeros(n_rays, dtype=bool)
    max_steps = int((max_distance - start_distance) / step) + 1
    for _ in range(max_steps):
        pending = ~found & (t <= max_distance)
        if not np.any(pending):
            break
        idx = np.flatnonzero(pending)
        points = origin + unit_dirs[idx] * t[idx, None]
        values, valid = sample_reference(volume, points)
        pv = prev_value[idx]
        crossed = valid & (pv > 0) & (values <= 0)
        hit_idx = idx[crossed]
        if len(hit_idx) > 0:
            frac = pv[crossed] / np.maximum(pv[crossed] - values[crossed], 1e-9)
            hit_t[hit_idx] = (t[hit_idx] - step) + frac * step
            found[hit_idx] = True
        prev_value[idx] = values
        t[idx] += step

    h, w = camera.height, camera.width
    depth = np.zeros(n_rays)
    vertices = np.zeros((n_rays, 3))
    normals = np.zeros((n_rays, 3))
    if np.any(found):
        points = origin + unit_dirs[found] * hit_t[found, None]
        vertices[found] = points
        grad = gradient_reference(volume, points)
        norm = np.linalg.norm(grad, axis=1, keepdims=True)
        normals[found] = grad / np.maximum(norm, 1e-9)
        depth[found] = hit_t[found] / elongation[found]
    return RaycastResult(
        depth=depth.reshape(h, w),
        vertices=vertices.reshape(h, w, 3),
        normals=normals.reshape(h, w, 3),
        valid=found.reshape(h, w),
    )


def _sphere_hit(
    origin: np.ndarray, directions: np.ndarray, center: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    oc = origin - center
    a = np.sum(directions * directions, axis=1)
    b = 2.0 * directions @ oc
    c = float(oc @ oc) - radius * radius
    disc = b * b - 4 * a * c
    hit = disc >= 0
    sqrt_disc = np.sqrt(np.where(hit, disc, 0.0))
    t = (-b - sqrt_disc) / (2 * a)
    t = np.where(hit & (t > 1e-6), t, np.inf)
    points = origin + directions * np.where(np.isfinite(t), t, 0.0)[:, None]
    normals = (points - center) / radius
    return t, normals


def render_reference(renderer: Renderer, pose: Pose, render_time: float = 0.0) -> RenderedFrame:
    """``Renderer.render`` intersecting every primitive with every ray."""
    h, w = renderer.camera.height, renderer.camera.width
    rays_body = renderer._rays_cam @ R_CAM_BODY
    directions = quat_rotate(pose.orientation, rays_body)
    origin = pose.position
    n = directions.shape[0]

    t_hit = np.full(n, np.inf)
    color = np.zeros((n, 3))
    normal = np.zeros((n, 3))
    albedo = np.zeros((n, 3))
    specular = np.zeros(n)
    hit_any = np.zeros(n, dtype=bool)

    def commit(t: np.ndarray, alb: np.ndarray, nrm: np.ndarray, spec: float | np.ndarray) -> None:
        closer = t < t_hit
        if not np.any(closer):
            return
        t_hit[closer] = t[closer]
        albedo[closer] = alb[closer] if alb.ndim == 2 else alb
        normal[closer] = nrm[closer]
        if np.isscalar(spec):
            specular[closer] = spec
        else:
            specular[closer] = spec[closer]
        hit_any[closer] = True

    # Room walls (textured apps only; AR demo leaves them black).
    t_room, n_room = renderer._intersect_room(origin, directions)
    if renderer.scene.textured_room:
        hit_points = origin + directions * t_room[:, None]
        wall_albedo = renderer._wall_texture(hit_points, n_room)
        commit(t_room, wall_albedo, n_room, 0.05)
    else:
        # Opaque but black: occludes virtual objects correctly.
        commit(t_room, np.zeros((n, 3)), n_room, 0.0)

    for sphere in renderer.scene.spheres:
        t, nrm = _sphere_hit(origin, directions, sphere.center, sphere.radius)
        commit(t, np.broadcast_to(sphere.color, (n, 3)), nrm, sphere.specular)

    for box in renderer.scene.boxes:
        t, nrm = _box_hit(origin, directions, box.minimum, box.maximum)
        commit(t, np.broadcast_to(box.color, (n, 3)), nrm, box.specular)

    # Shading: ambient + Lambertian + Blinn-Phong.
    light = -renderer.scene.light_dir
    n_dot_l = np.clip(normal @ light, 0.0, 1.0)
    view = -directions / np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-12)
    half = light + view
    half /= np.maximum(np.linalg.norm(half, axis=1, keepdims=True), 1e-12)
    spec_term = specular * np.clip(np.sum(normal * half, axis=1), 0.0, 1.0) ** 24
    shade = 0.25 + 0.75 * n_dot_l
    color = albedo * shade[:, None] + spec_term[:, None]
    color[~hit_any] = 0.0

    depth = np.where(np.isfinite(t_hit), t_hit / renderer._z_scale, 0.0)
    return RenderedFrame(
        image=np.clip(color, 0.0, 1.0).reshape(h, w, 3),
        depth=depth.reshape(h, w),
        pose=pose,
        render_time=render_time,
    )


def im2col_reference(x: np.ndarray, kernel: int) -> np.ndarray:
    """The eye tracker's ``_im2col``, one shifted copy per kernel offset."""
    n, c, h, w = x.shape
    pad = kernel // 2
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # Gather shifted views; stack along a new patch axis.
    cols = np.empty((n, h, w, c * kernel * kernel), dtype=x.dtype)
    idx = 0
    for dy in range(kernel):
        for dx in range(kernel):
            cols[..., idx * c : (idx + 1) * c] = np.moveaxis(
                padded[:, :, dy : dy + h, dx : dx + w], 1, -1
            )
            idx += 1
    return cols


def conv_backward_reference(
    layer: ConvLayer, grad_out: np.ndarray, cols: np.ndarray, x_shape: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ConvLayer.backward``: returns (grad_x, grad_weight, grad_bias)."""
    n, out_c, h, w = grad_out.shape
    g = np.moveaxis(grad_out, 1, -1).reshape(-1, out_c)  # (NHW, out_c)
    grad_w = g.T @ cols.reshape(-1, cols.shape[-1])
    grad_b = g.sum(axis=0)
    grad_cols = (g @ layer.weight).reshape(n, h, w, -1)
    # col2im: scatter-add the patch gradients back.
    in_c = x_shape[1]
    pad = layer.kernel // 2
    grad_padded = np.zeros((n, in_c, h + 2 * pad, w + 2 * pad))
    idx = 0
    for dy in range(layer.kernel):
        for dx in range(layer.kernel):
            grad_padded[:, :, dy : dy + h, dx : dx + w] += np.moveaxis(
                grad_cols[..., idx * in_c : (idx + 1) * in_c], -1, 1
            )
            idx += 1
    grad_x = grad_padded[:, :, pad : pad + h, pad : pad + w]
    return grad_x, grad_w, grad_b


def train_reference(
    tracker: EyeTracker,
    generator: EyeImageGenerator,
    steps: int = 120,
    batch_size: int = 8,
    learning_rate: float = 0.05,
    momentum: float = 0.9,
) -> List[float]:
    """``EyeTracker.train`` over :func:`conv_backward_reference`."""
    velocity = [
        (np.zeros_like(layer.weight), np.zeros_like(layer.bias)) for layer in tracker.layers
    ]
    losses: List[float] = []
    for _step in range(steps):
        samples = generator.batch(batch_size)
        batch = np.stack([s.image for s in samples])[:, None].astype(float)
        target = np.stack([s.mask for s in samples]).astype(float)
        probs, caches = tracker._forward(batch)
        eps = 1e-7
        probs_c = np.clip(probs, eps, 1 - eps)
        # Class-weighted BCE (the pupil is a small fraction of pixels).
        pos_weight = 8.0
        loss = -np.mean(
            pos_weight * target * np.log(probs_c) + (1 - target) * np.log(1 - probs_c)
        )
        losses.append(float(loss))
        n_pix = probs.size
        grad = (probs_c - target) * (pos_weight * target + (1 - target)) / n_pix
        grad = grad[:, None]  # (N, 1, H, W), already through sigmoid
        for i in reversed(range(len(tracker.layers))):
            x_shape, cols, pre_activation = caches[i]
            if i < len(tracker.layers) - 1:
                grad = grad * (pre_activation > 0)
            grad, grad_w, grad_b = conv_backward_reference(tracker.layers[i], grad, cols, x_shape)
            vw, vb = velocity[i]
            vw *= momentum
            vw -= learning_rate * grad_w
            vb *= momentum
            vb -= learning_rate * grad_b
            tracker.layers[i].weight += vw
            tracker.layers[i].bias += vb
    tracker.trained = True
    return losses
