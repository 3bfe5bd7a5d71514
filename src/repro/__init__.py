"""repro: a pure-Python reproduction of ILLIXR (IISWC 2021).

ILLIXR is an end-to-end extended-reality (XR) system and research testbed:
a modular runtime in which perception, visual, and audio pipeline components
communicate through event streams, scheduled against per-component deadlines,
with end-to-end quality-of-experience (QoE) metrics.

This package reimplements the complete system in Python:

- :mod:`repro.core` -- the runtime (switchboard, plugins, scheduler,
  phonebook, telemetry) — the paper's primary contribution.
- :mod:`repro.sim` -- a discrete-event simulation engine standing in for
  real hardware platforms.
- :mod:`repro.hardware` -- platform, timing, power, and microarchitecture
  models for the desktop, Jetson-HP, and Jetson-LP configurations.
- :mod:`repro.sensors` -- synthetic camera/IMU/depth/eye sensors driven by a
  smooth ground-truth trajectory.
- :mod:`repro.perception` -- MSCKF visual-inertial odometry, RK4 IMU
  integration, eye tracking, and TSDF scene reconstruction.
- :mod:`repro.visual` -- software renderer (the "application"), reprojection
  (timewarp), lens distortion/chromatic aberration, and holography.
- :mod:`repro.audio` -- higher-order ambisonic encoding and binaural playback.
- :mod:`repro.plugins` -- the ILLIXR plugins wiring components into the
  runtime.
- :mod:`repro.openxr` -- a minimal OpenXR-style application interface.
- :mod:`repro.metrics` -- MTP, SSIM, FLIP, and trajectory-error metrics.
- :mod:`repro.analysis` -- experiment drivers regenerating every table and
  figure of the paper's evaluation.
- :mod:`repro.resilience` -- runtime supervision (crash/hang handling,
  quarantine, dead-letter routing) and deterministic fault injection for
  chaos testing.
"""

from typing import Any

__version__ = "1.0.0"

# Lazily resolved exports: "name" -> (module, attribute).
_EXPORTS = {
    "SystemConfig": ("repro.core.config", "SystemConfig"),
    "TABLE_III_PARAMETERS": ("repro.core.config", "TABLE_III_PARAMETERS"),
    "Runtime": ("repro.core.runtime", "Runtime"),
    "RuntimeResult": ("repro.core.runtime", "RuntimeResult"),
    "build_runtime": ("repro.core.runtime", "build_runtime"),
    "DESKTOP": ("repro.hardware.platform", "DESKTOP"),
    "JETSON_HP": ("repro.hardware.platform", "JETSON_HP"),
    "JETSON_LP": ("repro.hardware.platform", "JETSON_LP"),
    "PLATFORMS": ("repro.hardware.platform", "PLATFORMS"),
    "Platform": ("repro.hardware.platform", "Platform"),
    "APPLICATIONS": ("repro.visual.scenes", "APPLICATIONS"),
    "build_extended_runtime": ("repro.plugins.extended", "build_extended_runtime"),
    "build_offloaded_runtime": ("repro.plugins.offload", "build_offloaded_runtime"),
    "run_matrix": ("repro.analysis.experiments", "run_matrix"),
    "evaluate_image_quality": ("repro.metrics.qoe", "evaluate_image_quality"),
    "FaultPlan": ("repro.resilience.faults", "FaultPlan"),
    "RuntimeSupervisor": ("repro.resilience.supervisor", "RuntimeSupervisor"),
    "SupervisorConfig": ("repro.resilience.supervisor", "SupervisorConfig"),
    "CANNED_PLANS": ("repro.resilience.plans", "CANNED_PLANS"),
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    """PEP 562 lazy attribute access for the public API."""
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attribute)
