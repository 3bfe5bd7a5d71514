"""System configuration: the tunable parameters of Table III.

Configuring an XR system means tuning many interacting parameters (camera
rate/resolution/exposure, IMU rate, display rate/resolution/FoV, audio
rate/block size).  The defaults below are the paper's tuned values; the
ranges are the paper's reported tunable ranges, kept so that experiments
(and the Table III bench) can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Parameter:
    """One tunable system parameter: its range, tuned value, and deadline."""

    component: str
    name: str
    range_description: str
    tuned: str
    deadline_ms: Optional[float]


# Table III of the paper, verbatim.
TABLE_III_PARAMETERS: Tuple[Parameter, ...] = (
    Parameter("Camera (VIO)", "Frame rate", "15 - 100 Hz", "15 Hz", 66.7),
    Parameter("Camera (VIO)", "Resolution", "VGA - 2K", "VGA", None),
    Parameter("Camera (VIO)", "Exposure", "0.2 - 20 ms", "1 ms", None),
    Parameter("IMU (Integrator)", "Frame rate", "<= 800 Hz", "500 Hz", 2.0),
    Parameter("Display (Visual pipeline, Application)", "Frame rate", "30 - 144 Hz", "120 Hz", 8.33),
    Parameter("Display (Visual pipeline, Application)", "Resolution", "<= 2K", "2K", None),
    Parameter("Display (Visual pipeline, Application)", "Field-of-view", "<= 180", "90", None),
    Parameter("Audio (Encoding, Playback)", "Frame rate", "48 - 96 Hz", "48 Hz", 20.8),
    Parameter("Audio (Encoding, Playback)", "Block size", "256 - 2048", "1024", None),
)


RESOLUTIONS: Dict[str, Tuple[int, int]] = {
    "VGA": (640, 480),
    "720p": (1280, 720),
    "1080p": (1920, 1080),
    "2K": (2560, 1440),
}


@dataclass(frozen=True)
class SystemConfig:
    """Full end-to-end system configuration (Table III defaults).

    ``fidelity`` selects how much real algorithmic work the integrated run
    performs: ``"model"`` charges only modeled execution times (fast,
    enough for Fig. 3-7), while ``"full"`` also runs the real VIO /
    integrator / audio algorithms through the switchboard so pose and
    audio outputs are genuine.
    """

    # Perception pipeline (camera-driven)
    camera_rate_hz: float = 15.0
    camera_resolution: str = "VGA"
    camera_exposure_ms: float = 1.0
    # Perception pipeline (IMU-driven)
    imu_rate_hz: float = 500.0
    # Visual pipeline
    display_rate_hz: float = 120.0
    display_resolution: str = "2K"
    field_of_view_deg: float = 90.0
    # Audio pipeline
    audio_rate_hz: float = 48.0
    audio_block_size: int = 1024
    audio_sample_rate_hz: int = 48000
    # Run control
    duration_s: float = 30.0
    seed: int = 0
    fidelity: str = "full"
    # VIO accuracy/performance knob (§V.E ablation): scales the number of
    # tracked features and SLAM landmarks.
    vio_quality: str = "standard"  # "standard" | "high"
    # Reprojection pose prediction (footnote 3 of the paper): predict the
    # pose forward to the display time instead of using the latest sample.
    pose_prediction: bool = False

    def __post_init__(self) -> None:
        if not 15.0 <= self.camera_rate_hz <= 100.0:
            raise ValueError(f"camera rate out of range: {self.camera_rate_hz}")
        if self.camera_resolution not in RESOLUTIONS:
            raise ValueError(f"unknown camera resolution: {self.camera_resolution}")
        if not 0.2 <= self.camera_exposure_ms <= 20.0:
            raise ValueError(f"camera exposure out of range: {self.camera_exposure_ms}")
        if not 0 < self.imu_rate_hz <= 800.0:
            raise ValueError(f"IMU rate out of range: {self.imu_rate_hz}")
        if not 30.0 <= self.display_rate_hz <= 144.0:
            raise ValueError(f"display rate out of range: {self.display_rate_hz}")
        if self.display_resolution not in RESOLUTIONS:
            raise ValueError(f"unknown display resolution: {self.display_resolution}")
        if not 0 < self.field_of_view_deg <= 180.0:
            raise ValueError(f"field of view out of range: {self.field_of_view_deg}")
        if not 48.0 <= self.audio_rate_hz <= 96.0:
            raise ValueError(f"audio rate out of range: {self.audio_rate_hz}")
        if not 256 <= self.audio_block_size <= 2048:
            raise ValueError(f"audio block size out of range: {self.audio_block_size}")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive: {self.duration_s}")
        if self.fidelity not in ("model", "full"):
            raise ValueError(f"fidelity must be 'model' or 'full': {self.fidelity}")
        if self.vio_quality not in ("standard", "high"):
            raise ValueError(f"vio_quality must be 'standard' or 'high': {self.vio_quality}")

    @property
    def camera_period(self) -> float:
        """Seconds between camera frames."""
        return 1.0 / self.camera_rate_hz

    @property
    def imu_period(self) -> float:
        """Seconds between IMU samples."""
        return 1.0 / self.imu_rate_hz

    @property
    def vsync_period(self) -> float:
        """Seconds between display vsyncs."""
        return 1.0 / self.display_rate_hz

    @property
    def audio_period(self) -> float:
        """Seconds between audio blocks."""
        return 1.0 / self.audio_rate_hz

    @property
    def display_pixels(self) -> int:
        """Pixel count of the configured display resolution."""
        width, height = RESOLUTIONS[self.display_resolution]
        return width * height

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = SystemConfig()
