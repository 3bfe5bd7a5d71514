"""Per-component execution-time models, calibrated to §IV of the paper.

The paper measures each component's per-frame execution time live.  Our
substrate instead *samples* execution times from per-component lognormal
distributions whose desktop means/dispersions are calibrated to Fig. 4 and
whose platform scaling reproduces the frame-rate and MTP degradation of
Fig. 3 and Table IV.  Input-dependent components (VIO, the application)
additionally multiply by a per-invocation complexity reported by the plugin,
which is what produces the heavy-tailed variability of Fig. 4.

All baseline numbers are **desktop** seconds; platform multipliers come from
:class:`repro.hardware.platform.Platform`, with per-component overrides where
the paper indicates non-uniform scaling (e.g. VIO on Jetson-LP has mean
execution time just below the 66.7 ms camera deadline, so its variability
causes many missed deadlines -- §IV-A3).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.hardware.platform import Platform


#: The standard normal's 0.9-quantile: the double ``scipy.stats.norm.ppf(0.9)``
#: returns (cephes ndtri).
NORMAL_P90 = 1.2815515655446004


@dataclass(frozen=True)
class CostModel:
    """Lognormal execution-time model for one component on the desktop.

    ``cpu_mean``/``gpu_mean`` are mean seconds of CPU work and GPU work per
    invocation; ``cov`` is the coefficient of variation of each.
    """

    cpu_mean: float
    gpu_mean: float = 0.0
    cov: float = 0.10

    def __post_init__(self) -> None:
        if self.cpu_mean < 0 or self.gpu_mean < 0:
            raise ValueError("cost means must be non-negative")
        if self.cov < 0:
            raise ValueError("cov must be non-negative")


class CostSample(NamedTuple):
    """One sampled invocation cost (seconds of CPU and GPU occupancy)."""

    cpu_time: float
    gpu_time: float

    @property
    def total(self) -> float:
        """CPU + GPU seconds (serialized lower bound on wall time)."""
        return self.cpu_time + self.gpu_time


# ---------------------------------------------------------------------------
# Desktop-calibrated component baselines (Fig. 4 and §IV-B).
# ---------------------------------------------------------------------------

COMPONENT_COSTS: Dict[str, CostModel] = {
    # Sensor handling is cheap (bottom panel of Fig. 4: <= 2 ms).
    "camera": CostModel(cpu_mean=0.45e-3, cov=0.18),
    "imu": CostModel(cpu_mean=0.045e-3, cov=0.20),
    # VIO: desktop mean ~12 ms, CoV 17-26 % across datasets (§IV-B1).
    "vio": CostModel(cpu_mean=12.0e-3, cov=0.21),
    # RK4 integrator (bottom panel of Fig. 4, well under its 2 ms deadline).
    "integrator": CostModel(cpu_mean=0.14e-3, cov=0.16),
    # Reprojection (timewarp): hybrid CPU-GPU; desktop ~1-2 ms (Fig. 4),
    # dominated by driver/OpenGL state on the CPU side (Table VII).
    "timewarp": CostModel(cpu_mean=0.55e-3, gpu_mean=1.0e-3, cov=0.18),
    # Audio: CPU-only, comfortably within the 20.8 ms deadline.
    "audio_encoding": CostModel(cpu_mean=0.9e-3, cov=0.10),
    "audio_playback": CostModel(cpu_mean=1.3e-3, cov=0.10),
    # Standalone-only components (§IV-B): eye tracking is a small GPU DNN,
    # scene reconstruction is a hybrid CPU-GPU dense-SLAM pipeline,
    # hologram is a GPU compute workload.
    "eye_tracking": CostModel(cpu_mean=1.2e-3, gpu_mean=5.0e-3, cov=0.12),
    "scene_reconstruction": CostModel(cpu_mean=8.0e-3, gpu_mean=17.0e-3, cov=0.22),
    "hologram": CostModel(cpu_mean=0.8e-3, gpu_mean=9.5e-3, cov=0.08),
}

# Application render cost per app (desktop): chosen for the Fig. 3a rates --
# Sponza (~60 Hz) and Materials (~90 Hz) miss the 120 Hz target on the
# desktop; Platformer and AR Demo meet it.  Rendering is GPU-dominant.
APPLICATION_COSTS: Dict[str, CostModel] = {
    "sponza": CostModel(cpu_mean=3.2e-3, gpu_mean=12.6e-3, cov=0.13),
    "materials": CostModel(cpu_mean=2.4e-3, gpu_mean=8.2e-3, cov=0.12),
    "platformer": CostModel(cpu_mean=1.8e-3, gpu_mean=4.9e-3, cov=0.14),
    "ar_demo": CostModel(cpu_mean=0.9e-3, gpu_mean=1.9e-3, cov=0.10),
}

# Per-component overrides of the platform-wide (cpu_scale, gpu_scale):
# VIO scales sub-linearly with clocks (large LLC-resident working set),
# landing its Jetson-LP mean just below the 66.7 ms deadline (§IV-A3);
# timewarp on Jetson-LP lands right at its 8.33 ms deadline.
SCALE_OVERRIDES: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("jetson-hp", "vio"): (2.6, 2.6),
    ("jetson-lp", "vio"): (4.9, 4.9),
    ("jetson-hp", "timewarp"): (1.7, 1.9),
    ("jetson-lp", "timewarp"): (2.9, 3.2),
    ("jetson-hp", "integrator"): (2.4, 2.4),
    ("jetson-lp", "integrator"): (4.0, 4.0),
    ("jetson-hp", "audio_encoding"): (2.5, 2.5),
    ("jetson-lp", "audio_encoding"): (4.2, 4.2),
    ("jetson-hp", "audio_playback"): (2.5, 2.5),
    ("jetson-lp", "audio_playback"): (4.2, 4.2),
}


# A (component, app) pair's lognormal parameters; see TimingModel._lognormal.
_Parameters = Tuple[np.random.Generator, float, float, float, float]


class TimingModel:
    """Samples per-invocation execution costs for a platform.

    One independent RNG stream per component keeps runs reproducible and
    component orderings independent of each other.
    """

    def __init__(self, platform: Platform, seed: int = 0) -> None:
        self.platform = platform
        self.seed = seed
        self._rngs: Dict[str, np.random.Generator] = {}
        self._parameters: Dict[Tuple[str, Optional[str]], _Parameters] = {}

    def _rng(self, component: str) -> np.random.Generator:
        if component not in self._rngs:
            material = f"{self.platform.key}/{component}/{self.seed}"
            # A stable hash: Python's hash() is randomized per process,
            # which would break run-to-run reproducibility.
            digest = hashlib.sha256(material.encode()).digest()
            self._rngs[component] = np.random.default_rng(
                int.from_bytes(digest[:8], "little")
            )
        return self._rngs[component]

    def _model_for(self, component: str, app: Optional[str]) -> CostModel:
        if component == "application":
            if app is None:
                raise ValueError("application cost requires an app name")
            try:
                return APPLICATION_COSTS[app]
            except KeyError:
                raise KeyError(
                    f"unknown application {app!r}; options: {sorted(APPLICATION_COSTS)}"
                ) from None
        try:
            return COMPONENT_COSTS[component]
        except KeyError:
            raise KeyError(
                f"unknown component {component!r}; options: {sorted(COMPONENT_COSTS)}"
            ) from None

    def _scales(self, component: str) -> Tuple[float, float]:
        override = SCALE_OVERRIDES.get((self.platform.key, component))
        if override is not None:
            return override
        return (self.platform.cpu_scale, self.platform.gpu_scale)

    def _lognormal(self, component: str, app: Optional[str]) -> _Parameters:
        """(rng, cpu mean x scale, gpu mean x scale, sigma^2 / 2, sigma) of
        the pair's lognormals, validated and computed on first use.

        Platform scales are positive, so a scaled mean is zero exactly
        when the model's mean is: that phase has no work and no draw.
        """
        parameters = self._parameters.get((component, app))
        if parameters is None:
            model = self._model_for(component, app)
            cpu_scale, gpu_scale = self._scales(component)
            sigma2 = math.log(1.0 + model.cov * model.cov)
            parameters = (
                self._rng(component if app is None else f"{component}/{app}"),
                model.cpu_mean * cpu_scale,
                model.gpu_mean * gpu_scale,
                0.5 * sigma2,
                math.sqrt(sigma2),
            )
            self._parameters[(component, app)] = parameters
        return parameters

    def mean_cost(self, component: str, app: Optional[str] = None) -> CostSample:
        """Mean (not sampled) cost of one invocation on this platform."""
        _rng, cpu_mean, gpu_mean, _half_sigma2, _sigma = self._lognormal(component, app)
        return CostSample(cpu_mean, gpu_mean)

    def sample(
        self,
        component: str,
        app: Optional[str] = None,
        complexity: float = 1.0,
    ) -> CostSample:
        """Sample one invocation's (cpu_time, gpu_time) on this platform.

        Each phase draws ``lognormal(log(mean * complexity) - sigma^2 / 2,
        sigma)`` from the pair's own stream, CPU first, so its mean is the
        scaled mean times ``complexity``.
        """
        # One chained comparison rejects zero, negatives, NaN and infinity.
        if not 0.0 < complexity < math.inf:
            raise ValueError(f"complexity must be finite and positive: {complexity}")
        rng, cpu_mean, gpu_mean, half_sigma2, sigma = self._parameters.get(
            (component, app)
        ) or self._lognormal(component, app)
        cpu_time = (
            float(rng.lognormal(math.log(cpu_mean * complexity) - half_sigma2, sigma))
            if cpu_mean
            else 0.0
        )
        gpu_time = (
            float(rng.lognormal(math.log(gpu_mean * complexity) - half_sigma2, sigma))
            if gpu_mean
            else 0.0
        )
        return CostSample(cpu_time, gpu_time)

    def p90(self, component: str, app: Optional[str] = None) -> float:
        """Analytic 90th percentile of the total-cost distribution.

        Used to choose the vsync lead time for reprojection ("scheduled
        as late as possible", footnote 5).
        """
        _rng, cpu_mean, gpu_mean, half_sigma2, sigma = self._lognormal(component, app)
        total = 0.0
        for mean in (cpu_mean, gpu_mean):
            if mean > 0:
                total += math.exp(math.log(mean) - half_sigma2 + sigma * NORMAL_P90)
        return total
