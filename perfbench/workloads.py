"""The benchmark's four workloads: what each runs and why.

A workload is a fixed batch of operations.  Integrated workloads run
``build_runtime(...).run()`` cells; ``characterize`` runs the standalone
component characterizations behind Tables V-VII.  One batch is one pass
over the workload's operations, back to back in one process.

The workload seed is the benchmark's argument.  The program only ever sees
seeds derived from it (``SystemConfig.seed``, fault-plan seeds and
characterization seeds), one per operation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

# Every program module a workload touches.  Setup imports (and times) all
# of them, so no batch pays a first import inside its timed section; the
# standalone characterizations import most of these lazily.
PROGRAM_MODULES = (
    "repro",
    "repro.core.runtime",
    "repro.hardware.platform",
    "repro.visual.scenes",
    "repro.resilience",
    "repro.resilience.plans",
    "repro.obs",
    "repro.analysis.standalone",
    "repro.metrics.qoe",
    "repro.perception.vio.msckf",
    "repro.sensors.dataset",
    "repro.sensors.depth",
    "repro.sensors.eye",
    "repro.sensors.trajectory",
    "repro.perception.reconstruction.pipeline",
    "repro.perception.eye_tracking",
    "repro.visual.distortion",
    "repro.visual.hologram",
    "repro.visual.renderer",
    "repro.visual.reprojection",
    "repro.audio.encoding",
    "repro.audio.playback",
    "repro.audio.sources",
    "repro.maths.quaternion",
)

PLATFORM_KEYS = ("desktop", "jetson-hp", "jetson-lp")
APP_NAMES = ("sponza", "materials", "platformer", "ar_demo")


def derive_seed(seed: int, *labels: str) -> int:
    """The program-side seed of one input, derived from the workload seed."""
    text = ":".join(("perfbench", str(seed)) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") % 1_000_000


@dataclass(frozen=True)
class Cell:
    """One integrated run of the §III-B configuration."""

    platform: str
    app: str
    fidelity: str
    duration_s: float
    plan: Optional[str] = None  # a canned fault plan; implies supervision
    observability: bool = False

    @property
    def name(self) -> str:
        return "/".join(part for part in (self.platform, self.app, self.plan) if part)

    def build(self, seed: int):
        """``build_runtime`` for this cell under the workload seed."""
        from repro import CANNED_PLANS, PLATFORMS, SystemConfig, build_runtime
        from repro.resilience import SupervisorConfig

        config = SystemConfig(
            duration_s=self.duration_s,
            fidelity=self.fidelity,
            seed=derive_seed(seed, self.name),
        )
        plan = None
        if self.plan is not None:
            plan = CANNED_PLANS[self.plan](derive_seed(seed, self.name, "plan"))
        return build_runtime(
            PLATFORMS[self.platform],
            self.app,
            config,
            fault_plan=plan,
            supervision=SupervisorConfig() if plan is not None else None,
            observability=self.observability,
        )


@dataclass(frozen=True)
class Step:
    """One standalone characterization call.

    ``run(seed, inputs)`` returns the step's deterministic outputs, the
    values the output check compares; host-time task shares never appear
    there.  ``sensor_s`` is the simulated span of the sensor data the step
    consumes (0 for steps whose inputs have no time axis).
    """

    name: str
    sensor_s: float
    run: Callable[[int, Any], Dict[str, float]]


# Step sizes: chosen so that one batch takes about 3 s on one core and no
# kernel layer's share of it is negligible.
VIO_S = 2.5
RECONSTRUCTION_FRAMES = 8  # 0.3 s apart in the depth sequence
AUDIO_BLOCKS = 48  # 1024 samples at 48 kHz each
DISPLAY_RUN_S = 1.0


def _vio(seed: int, _inputs: Any) -> Dict[str, float]:
    from repro.analysis.standalone import characterize_vio

    breakdown = characterize_vio(duration_s=VIO_S, seed=seed)
    return {"ate_cm": breakdown.extras["ate_cm"], "frames": breakdown.frames}


def _reconstruction(seed: int, _inputs: Any) -> Dict[str, float]:
    from repro.analysis.standalone import characterize_reconstruction

    breakdown = characterize_reconstruction(frames=RECONSTRUCTION_FRAMES, seed=seed)
    return {
        "pose_error_cm": breakdown.extras["pose_error_cm"],
        "occupied_fraction": breakdown.extras["occupied_fraction"],
        "frames": breakdown.frames,
    }


def _eye_tracking(seed: int, _inputs: Any) -> Dict[str, float]:
    from repro.analysis.standalone import characterize_eye_tracking

    breakdown = characterize_eye_tracking(train_steps=15, eval_samples=8, seed=seed)
    return {
        "mean_iou": breakdown.extras["mean_iou"],
        "mean_gaze_error": breakdown.extras["mean_gaze_error"],
        "frames": breakdown.frames,
    }


def _reprojection(seed: int, _inputs: Any) -> Dict[str, float]:
    from repro.analysis.standalone import characterize_reprojection

    return {"frames": characterize_reprojection(frames=12, seed=seed).frames}


def _hologram(seed: int, _inputs: Any) -> Dict[str, float]:
    from repro.analysis.standalone import characterize_hologram

    breakdown = characterize_hologram(iterations=96, resolution=128, seed=seed)
    return {
        "efficiency": breakdown.extras["efficiency"],
        "uniformity": breakdown.extras["uniformity"],
    }


def _audio(seed: int, _inputs: Any) -> Dict[str, float]:
    from repro.analysis.standalone import characterize_audio

    breakdowns = characterize_audio(blocks=AUDIO_BLOCKS, seed=seed)
    return {name: breakdown.frames for name, breakdown in sorted(breakdowns.items())}


def _image_quality(_seed: int, display_run: Any) -> Dict[str, float]:
    from repro.metrics.qoe import evaluate_image_quality

    quality = evaluate_image_quality(display_run, max_frames=6)
    return {
        "ssim_mean": quality.ssim_mean,
        "ssim_std": quality.ssim_std,
        "one_minus_flip_mean": quality.one_minus_flip_mean,
        "one_minus_flip_std": quality.one_minus_flip_std,
        "frames": quality.frames,
    }


def _display_run(seed: int):
    """The integrated run whose display events ``_image_quality`` replays."""
    from repro import DESKTOP, SystemConfig, build_runtime

    config = SystemConfig(
        duration_s=DISPLAY_RUN_S, fidelity="full", seed=derive_seed(seed, "image_quality")
    )
    return build_runtime(DESKTOP, "sponza", config).run()


@dataclass(frozen=True)
class Workload:
    """A named batch of cells or steps, with the reason it exists."""

    name: str
    why: str
    cells: Tuple[Cell, ...] = ()
    steps: Tuple[Step, ...] = ()
    # Input generation before the timed section (counted in setup_s).
    prepare: Optional[Callable[[int], Any]] = None

    @property
    def operations(self) -> Tuple[str, ...]:
        """The names of the operations one batch attempts, in order."""
        return tuple(c.name for c in self.cells) + tuple(s.name for s in self.steps)

    @property
    def sim_seconds(self) -> float:
        """Simulated seconds one batch covers."""
        return sum(c.duration_s for c in self.cells) + sum(s.sensor_s for s in self.steps)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "integrated-full",
            "real VIO, RK4, IMU synthesis and audio dominate host time; two scheduler paths",
            cells=(
                Cell("desktop", "sponza", "full", 2.0),
                Cell("jetson-lp", "platformer", "full", 2.0),
            ),
        ),
        Workload(
            "model-grid",
            "the Fig. 3-7 grid at model fidelity: DES engine, scheduler, switchboard, splines",
            cells=tuple(
                Cell(platform, app, "model", 1.5) for platform in PLATFORM_KEYS for app in APP_NAMES
            ),
        ),
        # All on the desktop: on the Jetsons these plans can crash the run
        # (a known defect, reproduced by the benchmark's tests), and a
        # failing cell has no host time per simulated second to measure.
        Workload(
            "obs-chaos",
            "the only workload running obs tracing and resilience: supervised canned fault plans",
            cells=(
                Cell("desktop", "sponza", "model", 3.0, plan="imu_dropout", observability=True),
                Cell("desktop", "platformer", "model", 3.0, plan="renderer_stall", observability=True),
                Cell("desktop", "materials", "model", 3.0, plan="vio_crash_loop", observability=True),
            ),
        ),
        Workload(
            "characterize",
            "standalone Tables V-VII runs: the only home of the WGS, TSDF, SSIM/FLIP and CNN kernels",
            steps=(
                Step("vio", VIO_S, _vio),
                Step("reconstruction", RECONSTRUCTION_FRAMES * 0.3, _reconstruction),
                Step("eye_tracking", 0.0, _eye_tracking),
                Step("reprojection", 0.0, _reprojection),
                Step("hologram", 0.0, _hologram),
                Step("audio", AUDIO_BLOCKS * 1024 / 48000.0, _audio),
                Step("image_quality", 0.0, _image_quality),
            ),
            prepare=_display_run,
        ),
    )
}
