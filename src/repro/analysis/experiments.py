"""Integrated-system experiments (§IV-A of the paper).

The experiment grid is 4 applications x 3 platforms, 30 seconds each (the
paper's §III-A methodology).  ``duration_s`` can be shortened for quick
runs; the benchmarks default to a few seconds, which preserves every
qualitative result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.runtime import RuntimeResult, build_runtime
from repro.hardware.platform import PLATFORMS
from repro.visual.scenes import APPLICATION_ORDER

# Target rates per component graph of Fig. 3 (the y-axis caps).
FIG3_TARGETS: Dict[str, float] = {
    "camera": 15.0,
    "vio": 15.0,
    "imu": 500.0,
    "integrator": 500.0,
    "application": 120.0,
    "timewarp": 120.0,
    "audio_encoding": 48.0,
    "audio_playback": 48.0,
}


def run_matrix(
    duration_s: float = 30.0,
    fidelity: str = "full",
    platforms: Optional[Iterable[str]] = None,
    apps: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> List[RuntimeResult]:
    """The full 3x4 grid (or a subset), one run per (platform, app) cell."""
    platforms = list(platforms) if platforms is not None else list(PLATFORMS)
    apps = list(apps) if apps is not None else list(APPLICATION_ORDER)
    config = SystemConfig(duration_s=duration_s, fidelity=fidelity, seed=seed)
    return [build_runtime(PLATFORMS[p], a, config).run() for p in platforms for a in apps]


# ---------------------------------------------------------------------------
# §V.E: VIO accuracy/performance ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VioAblationResult:
    """One VIO parameter set's accuracy and cost."""

    quality: str
    ate_cm: float
    mean_frame_time_ms: float
    frames: int


def vio_accuracy_ablation(
    duration_s: float = 20.0, seed: int = 1
) -> Tuple[VioAblationResult, VioAblationResult]:
    """Reproduce §V.E: two VIO parameter sets, trajectory error vs cost.

    The paper: "average trajectory error could be reduced from 8.1 cm to
    4.9 cm at the cost of a 1.5x increase in average per-frame execution
    time."  We run the *real* MSCKF standalone on the offline dataset with
    the two presets and measure both quantities.

    The two filters run in lockstep on one dataset: each gets every IMU
    batch and frame in turn, so a change in host speed during the run
    hits both presets' frame times alike instead of skewing their ratio.
    """
    from dataclasses import replace

    from repro.perception.vio.msckf import Msckf, MsckfConfig
    from repro.sensors.dataset import make_vicon_room_dataset

    # Short exposure (a Table III knob) = noisier pixels; this is the
    # regime where extra tracked features buy real accuracy.
    dataset = make_vicon_room_dataset(duration=duration_s, seed=seed, exposure_ms=0.25)
    qualities = ("standard", "high")
    filters = [
        dataset.start_vio(Msckf, replace(base, pixel_sigma=dataset.camera.pixel_noise))
        for base in (MsckfConfig.standard(), MsckfConfig.high_accuracy())
    ]
    lockstep = zip(*(dataset.replay(vio) for vio in filters))
    results = []
    for quality, frames in zip(qualities, zip(*lockstep)):
        errors, frame_times = zip(*frames)
        results.append(
            VioAblationResult(
                quality=quality,
                ate_cm=float(np.mean(errors)) * 100.0,
                mean_frame_time_ms=float(np.mean(frame_times)) * 1e3,
                frames=len(frame_times),
            )
        )
    return (results[0], results[1])


# ---------------------------------------------------------------------------
# §V.C: sensor power / image quality trade-off (camera exposure sweep)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExposurePoint:
    """One camera-exposure setting's cost and accuracy."""

    exposure_ms: float
    sensor_power_w: float
    pixel_noise_px: float
    vio_ate_cm: float


def camera_exposure_sweep(
    exposures_ms: Iterable[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    duration_s: float = 10.0,
    seed: int = 1,
) -> List[ExposurePoint]:
    """§V.C: "reducing camera exposure can save power at the cost of a
    darker image" -- sweep the exposure knob and measure sensor power vs
    VIO accuracy (the decision the paper argues must be made system-wide).
    """
    from dataclasses import replace as dc_replace

    from repro.perception.vio.msckf import Msckf, MsckfConfig
    from repro.sensors.dataset import make_vicon_room_dataset

    points: List[ExposurePoint] = []
    for exposure in exposures_ms:
        dataset = make_vicon_room_dataset(
            duration=duration_s, seed=seed, exposure_ms=exposure
        )
        config = dc_replace(
            MsckfConfig.standard(), pixel_sigma=max(dataset.camera.pixel_noise, 0.3)
        )
        vio = dataset.start_vio(Msckf, config)
        errors = [error for error, _seconds in dataset.replay(vio)]
        points.append(
            ExposurePoint(
                exposure_ms=exposure,
                sensor_power_w=dataset.camera.sensor_power_w(),
                pixel_noise_px=dataset.camera.pixel_noise,
                vio_ate_cm=float(np.mean(errors)) * 100.0,
            )
        )
    return points


# ---------------------------------------------------------------------------
# §II footnote 2: VIO offloading comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OffloadComparison:
    """Local vs offloaded VIO on one device."""

    local_vio_rate_hz: float
    offloaded_vio_rate_hz: float
    local_vio_cpu_share: float
    offloaded_vio_cpu_share: float
    local_ate_cm: float
    offloaded_ate_cm: float
    mean_round_trip_ms: float


def offload_comparison(
    platform_key: str = "jetson-lp",
    remote_key: str = "desktop",
    app_name: str = "platformer",
    duration_s: float = 6.0,
    seed: int = 0,
) -> OffloadComparison:
    """Run the same system with local vs desktop-offloaded VIO."""
    from repro.plugins.offload import OffloadedVioPlugin, build_offloaded_runtime

    config = SystemConfig(duration_s=duration_s, fidelity="full", seed=seed)

    local = build_runtime(PLATFORMS[platform_key], app_name, config).run()
    remote_runtime = build_offloaded_runtime(
        PLATFORMS[platform_key], PLATFORMS[remote_key], app_name, config
    )
    remote = remote_runtime.run()
    offload_plugin = next(
        p for p in remote_runtime.plugins if isinstance(p, OffloadedVioPlugin)
    )

    def ate_cm(result: RuntimeResult) -> float:
        ate = result.vio_ate()
        return ate.mean_m * 100.0 if ate is not None else float("nan")

    return OffloadComparison(
        local_vio_rate_hz=local.frame_rate("vio"),
        offloaded_vio_rate_hz=remote.frame_rate("vio"),
        local_vio_cpu_share=local.cpu_share().get("vio", 0.0),
        offloaded_vio_cpu_share=remote.cpu_share().get("vio", 0.0),
        local_ate_cm=ate_cm(local),
        offloaded_ate_cm=ate_cm(remote),
        mean_round_trip_ms=float(np.mean(offload_plugin.round_trips)) * 1e3
        if offload_plugin.round_trips
        else float("nan"),
    )
