"""Computational holography: Weighted Gerchberg-Saxton ([40], [42]).

Computes the phase pattern a spatial light modulator (SLM) would display
to present multiple focal planes to the user (the *adaptive display*
component).  Propagation between the hologram plane and each depth plane
uses the angular-spectrum method (FFT + transfer function); the weighted GS
iteration drives every plane toward its target amplitude while equalizing
energy across planes.

Task accounting mirrors Table VII's hologram rows: ``hologram_to_depth``
(forward propagations), ``sum`` (accumulating plane contributions), and
``depth_to_hologram`` (backward propagations).

The per-depth transfer functions are stacked into one ``(D, N, N)`` array,
so a WGS iteration costs a *single* forward FFT of the hologram (every
plane shares it), one batched inverse FFT, one batched forward FFT of the
constrained fields, and one inverse FFT of their frequency-domain sum.
Per-target masks, flat indices, and norms are cached across iterations,
and the WGS weights and plane amplitudes live only on the in-target pixels
(weights elsewhere multiply a zero target and cannot affect the result).
``tests/kernel_oracles.py`` keeps the per-plane formulation (``D`` forward
and ``D`` backward FFT pairs per iteration) that the tests and
``benchmarks/perf_harness.py`` hold this solve to, within atol 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.fft

from repro.perf import TaskTimer, global_plan_cache, profiled

TASK_NAMES = ("hologram_to_depth", "sum", "depth_to_hologram")


@dataclass(frozen=True)
class HologramResult:
    """Output of one WGS solve."""

    phase: np.ndarray                 # (N, N) SLM phase in [-pi, pi]
    plane_amplitudes: List[np.ndarray]
    efficiency: float                 # target-region energy fraction
    uniformity: float                 # 1 - (max-min)/(max+min) across planes
    iterations: int
    task_times: Dict[str, float]


def _build_transfer_stack(
    resolution: int,
    wavelength_m: float,
    pixel_pitch_m: float,
    depths_m: Tuple[float, ...],
) -> np.ndarray:
    """Angular-spectrum transfer functions stacked as one (D, N, N) array."""
    fx = np.fft.fftfreq(resolution, d=pixel_pitch_m)
    fxx, fyy = np.meshgrid(fx, fx)
    inv_lambda2 = 1.0 / wavelength_m**2
    arg = inv_lambda2 - fxx**2 - fyy**2
    propagating = arg > 0
    kz = 2 * np.pi * np.sqrt(np.where(propagating, arg, 0.0))
    stack = np.empty((len(depths_m), resolution, resolution), dtype=complex)
    for k, z in enumerate(depths_m):
        stack[k] = np.where(propagating, np.exp(1j * kz * z), 0.0)
    return stack


@dataclass
class WeightedGerchbergSaxton:
    """Multi-plane WGS hologram solver on a square SLM."""

    resolution: int = 128
    wavelength_m: float = 520e-9
    pixel_pitch_m: float = 8e-6
    depths_m: Sequence[float] = (0.05, 0.10, 0.20)

    def __post_init__(self) -> None:
        if self.resolution < 16 or self.resolution & (self.resolution - 1):
            raise ValueError("resolution must be a power of two >= 16")
        for name in ("wavelength_m", "pixel_pitch_m"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite: {value}")
        if not self.depths_m:
            raise ValueError("need at least one depth plane")
        for z in self.depths_m:
            if not 0 < z < np.inf:
                raise ValueError(f"depth must be positive and finite: {z}")
        key = (
            "wgs.transfer",
            self.resolution,
            float(self.wavelength_m),
            float(self.pixel_pitch_m),
            tuple(float(z) for z in self.depths_m),
        )
        self._transfer_stack = global_plan_cache.get_or_build(
            key,
            lambda: _build_transfer_stack(
                self.resolution,
                self.wavelength_m,
                self.pixel_pitch_m,
                tuple(self.depths_m),
            ),
        )
        self._transfer_conj = np.conj(self._transfer_stack)

    def propagate_all(self, field_in: np.ndarray, forward: bool = True) -> np.ndarray:
        """Propagate one hologram field to every depth plane in one batch."""
        h = self._transfer_stack if forward else self._transfer_conj
        return scipy.fft.ifft2(scipy.fft.fft2(field_in)[None, :, :] * h)

    def _validated_targets(self, targets: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(targets) != len(self.depths_m):
            raise ValueError(
                f"{len(targets)} targets for {len(self.depths_m)} depth planes"
            )
        n = self.resolution
        targets = [np.asarray(t, dtype=float) for t in targets]
        for t in targets:
            if t.shape != (n, n):
                raise ValueError(f"target shape {t.shape} != ({n}, {n})")
            if not np.isfinite(t).all():
                raise ValueError("target amplitudes must be finite")
            if t.min() < 0:
                raise ValueError("target amplitudes must be non-negative")
        return targets

    @profiled("hologram.solve")
    def solve(
        self, targets: Sequence[np.ndarray], iterations: int = 10, seed: int = 0
    ) -> HologramResult:
        """Run WGS for the per-plane target amplitude images."""
        targets = self._validated_targets(targets)
        if not iterations >= 0:
            raise ValueError(f"iterations must be non-negative: {iterations}")
        n = self.resolution
        d = len(self.depths_m)
        tasks = TaskTimer("hologram", TASK_NAMES)
        rng = np.random.default_rng(seed)
        phase = rng.uniform(-np.pi, np.pi, (n, n))

        # Normalize targets to unit energy so weighting is meaningful; cache
        # the per-plane masks, flat indices, and in-target values once.
        target_stack = np.stack(
            [t / max(np.sqrt((t**2).sum()), 1e-12) for t in targets]
        )
        flat_targets = target_stack.reshape(-1)
        plane_idx = [
            np.flatnonzero(target_stack[k].reshape(-1) > 0) + k * n * n
            for k in range(d)
        ]
        target_vals = [flat_targets[i] for i in plane_idx]
        has_target = [len(i) > 0 for i in plane_idx]
        # All in-target indices in one array; plane k owns slice k of it.
        target_idx = np.concatenate(plane_idx)
        bounds = np.cumsum([0] + [len(i) for i in plane_idx]).tolist()
        plane_slices = [slice(bounds[k], bounds[k + 1]) for k in range(d)]
        masked_weights = [np.ones(len(i)) for i in plane_idx]
        h_conj = self._transfer_conj
        ratio = np.zeros(d * n * n)

        holo = np.exp(1j * phase)
        accumulated = None
        for _iteration in range(iterations):
            with tasks("hologram_to_depth"):
                # Every plane shares the hologram's spectrum: one forward
                # FFT, one batched inverse FFT, instead of D FFT pairs.
                plane_fields = scipy.fft.ifft2(
                    scipy.fft.fft2(holo)[None, :, :] * self._transfer_stack
                )

            with tasks("sum"):
                # Only in-target amplitudes are used (weights and the
                # constraint ratio vanish elsewhere): gather those fields,
                # then take |f|.
                amps = np.abs(plane_fields.reshape(-1)[target_idx])
                masked_amps = [amps[s] for s in plane_slices]
                # sum()/size and array.sum()/d are the additions and
                # divisions a.mean() and np.mean() make, without their
                # dispatch overhead.
                plane_means = [
                    float(a.sum()) / a.size if has_target[k] else 0.0
                    for k, a in enumerate(masked_amps)
                ]
                mean_amp = float(np.array(plane_means).sum()) / d

            with tasks("depth_to_hologram"):
                for k in range(d):
                    # WGS weight update: boost planes that are lagging.
                    # Weights only matter where the target is nonzero, so
                    # they are stored on the in-target pixels alone.
                    if has_target[k] and plane_means[k] > 0:
                        masked_weights[k] = (
                            masked_weights[k]
                            * ((mean_amp + 1e-12) / (masked_amps[k] + 1e-12)) ** 0.5
                        )
                    ratio[plane_idx[k]] = (
                        masked_weights[k]
                        * target_vals[k]
                        / np.maximum(masked_amps[k], 1e-300)
                    )
                # constrained_k = w_k * t_k * exp(i*angle(f_k)) == f_k * ratio_k.
                constrained = plane_fields * ratio.reshape(d, n, n)
                # ifft2 is linear: sum the spectra, invert once.
                spectra = scipy.fft.fft2(constrained)
                accumulated = scipy.fft.ifft2(np.einsum("kij,kij->ij", spectra, h_conj))
                holo = accumulated / np.maximum(np.abs(accumulated), 1e-300)

        if accumulated is not None:
            phase = np.angle(accumulated)

        # Final forward pass for metrics (of exp(i*phase), not of holo).
        final_fields = self.propagate_all(np.exp(1j * phase))
        final_amps = np.abs(final_fields)
        plane_amps = [final_amps[k] for k in range(d)]
        efficiencies = []
        plane_means = []
        for k in range(d):
            if not has_target[k]:
                continue
            local = plane_idx[k] - k * n * n
            amps_in_target = final_amps[k].reshape(-1)[local]
            total = float((final_amps[k] ** 2).sum())
            if total > 0:
                efficiencies.append(float((amps_in_target**2).sum()) / total)
                plane_means.append(float(amps_in_target.mean()))
        return self._result(phase, plane_amps, efficiencies, plane_means, iterations, tasks.times)

    @staticmethod
    def _result(
        phase: np.ndarray,
        plane_amps: List[np.ndarray],
        efficiencies: List[float],
        plane_means: List[float],
        iterations: int,
        task_times: Dict[str, float],
    ) -> HologramResult:
        efficiency = float(np.mean(efficiencies)) if efficiencies else 0.0
        if len(plane_means) >= 2:
            hi, lo = max(plane_means), min(plane_means)
            uniformity = 1.0 - (hi - lo) / (hi + lo + 1e-12)
        else:
            uniformity = 1.0
        return HologramResult(
            phase=phase,
            plane_amplitudes=plane_amps,
            efficiency=efficiency,
            uniformity=uniformity,
            iterations=iterations,
            task_times=dict(task_times),
        )


def focal_stack_from_frame(
    image: np.ndarray, depth: np.ndarray, depths_m: Sequence[float], resolution: int
) -> List[np.ndarray]:
    """Slice a rendered RGB-D frame into per-plane target amplitudes.

    Pixels are assigned to the nearest focal plane by depth; amplitude is
    the luminance.  This is how the adaptive display consumes the visual
    pipeline's output.
    """
    if image.ndim != 3:
        raise ValueError("expected an (H, W, 3) image")
    luminance = image @ np.array([0.2126, 0.7152, 0.0722])
    # Resize (nearest) to the SLM resolution.
    h, w = luminance.shape
    ys = (np.arange(resolution) * h // resolution).clip(0, h - 1)
    xs = (np.arange(resolution) * w // resolution).clip(0, w - 1)
    lum_r = luminance[np.ix_(ys, xs)]
    depth_r = depth[np.ix_(ys, xs)]
    # Map metric depth to focal planes on a log scale of 1/d.
    plane_edges = np.array(depths_m)
    targets = []
    assignment = np.argmin(
        np.abs(np.log(np.maximum(depth_r, 1e-3))[..., None] - np.log(plane_edges * 30.0)),
        axis=-1,
    )
    for k in range(len(depths_m)):
        target = np.where((assignment == k) & (depth_r > 0), lum_r, 0.0)
        targets.append(target)
    return targets
