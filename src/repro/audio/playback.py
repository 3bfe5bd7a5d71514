"""The audio-playback component: HOA soundfield -> binaural stereo.

Task accounting mirrors Table VII's audio-playback rows:

- ``psychoacoustic_filter``: frequency-domain optimization filter
  (FFT -> weighting -> IFFT);
- ``rotation``: rotate the soundfield by the listener's head orientation;
- ``zoom``: acoustic zoom along the look direction;
- ``binauralization``: HRTF rendering to two ears (the dominant cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.audio.hrtf import HrtfSet
from repro.audio.rotation import rotate_soundfield, zoom_soundfield
from repro.maths.quaternion import quat_to_matrix
from repro.maths.se3 import Pose
from repro.perf import TaskTimer

TASK_NAMES = ("psychoacoustic_filter", "rotation", "zoom", "binauralization")


@dataclass
class AudioPlayback:
    """Stateful block renderer (keeps overlap-add tails across blocks)."""

    order: int = 3
    block_size: int = 1024
    sample_rate_hz: int = 48000
    zoom_strength: float = 0.3
    hrtf: Optional[HrtfSet] = None
    _tail: Optional[np.ndarray] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not 256 <= self.block_size <= 2048:
            raise ValueError(f"block size out of range: {self.block_size}")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError(f"sample rate must be positive and finite: {self.sample_rate_hz}")
        # Zoom mixes W with the first-order X channel, so order 0 cannot play.
        if not 1 <= self.order <= 3:
            raise ValueError(f"playback order must be in [1, 3]: {self.order}")
        if not -1.0 <= self.zoom_strength <= 1.0:
            raise ValueError(f"zoom strength out of [-1, 1]: {self.zoom_strength}")
        if self.hrtf is None:
            self.hrtf = HrtfSet(
                sample_rate_hz=self.sample_rate_hz,
                order=self.order,
                fft_size=max(2048, 2 * self.block_size),
            )
        self._timer = TaskTimer("audio_playback", TASK_NAMES)
        self._filter_gain = self._build_psychoacoustic_filter()

    def _build_psychoacoustic_filter(self) -> np.ndarray:
        """Loudness-contour-ish weighting applied in the frequency domain."""
        freqs = np.fft.rfftfreq(self.block_size, d=1.0 / self.sample_rate_hz)
        f = np.maximum(freqs, 20.0)
        # Gentle bass roll-off + presence boost around 3 kHz.
        gain = (f / (f + 80.0)) * (1.0 + 0.4 * np.exp(-((np.log(f / 3000.0)) ** 2)))
        return gain

    def render_block(self, soundfield: np.ndarray, head_pose: Pose) -> np.ndarray:
        """Render one (channels, block) soundfield block to stereo (2, block)."""
        expected = (self.order + 1) ** 2
        if soundfield.shape != (expected, self.block_size):
            raise ValueError(
                f"soundfield shape {soundfield.shape} != ({expected}, {self.block_size})"
            )

        with self._timer("psychoacoustic_filter"):
            spectra = np.fft.rfft(soundfield, axis=1)
            spectra *= self._filter_gain[None, :]
            filtered = np.fft.irfft(spectra, n=self.block_size, axis=1)

        with self._timer("rotation"):
            # World -> head: rotate sources by the inverse head rotation.
            rotation = quat_to_matrix(head_pose.orientation).T
            rotated = rotate_soundfield(filtered, self.order, rotation)

        with self._timer("zoom"):
            zoomed = zoom_soundfield(rotated, self.zoom_strength)

        with self._timer("binauralization"):
            stereo, self._tail = self.hrtf.binauralize_block(zoomed, self._tail)
        return stereo

    def task_breakdown(self) -> Dict[str, float]:
        """Accumulated seconds per Table VII task."""
        return dict(self._timer.times)
