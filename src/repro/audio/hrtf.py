"""Synthetic head-related transfer functions and binaural decoding.

A measured HRTF set (e.g. the libspatialaudio HRTFs) is replaced by a
spherical-head model with the two dominant localization cues:

- **interaural time difference** (Woodworth's formula for a rigid sphere);
- **head shadow**: a one-pole low-pass whose cutoff falls as the source
  moves contralateral.

Binauralization decodes the HOA soundfield to a virtual speaker layout and
convolves each speaker feed with its two ear responses in the frequency
domain (the FFT -> multiply -> IFFT *binauralization* task of Table VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.audio.ambisonics import decode_matrix, fibonacci_directions

SPEED_OF_SOUND = 343.0  # m/s
HEAD_RADIUS = 0.0875    # m

# Ear axis: +y is the left ear in the head frame (x fwd, y left, z up).
_LEFT = np.array([0.0, 1.0, 0.0])
_RIGHT = np.array([0.0, -1.0, 0.0])


def interaural_delay(direction: np.ndarray, ear_axis: np.ndarray) -> float:
    """Woodworth ITD (seconds) of a plane wave from ``direction``."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / max(np.linalg.norm(direction), 1e-12)
    cos_angle = float(np.clip(direction @ ear_axis, -1.0, 1.0))
    angle = np.arccos(cos_angle)  # 0 = straight at this ear
    if angle <= np.pi / 2:
        # Ipsilateral: direct path shortening.
        return -HEAD_RADIUS / SPEED_OF_SOUND * np.cos(angle)
    # Contralateral: creeping wave around the sphere.
    return HEAD_RADIUS / SPEED_OF_SOUND * (angle - np.pi / 2 - np.cos(angle))


def head_shadow_gain(direction: np.ndarray, ear_axis: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Frequency-dependent magnitude of the head-shadow filter."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / max(np.linalg.norm(direction), 1e-12)
    cos_angle = float(np.clip(direction @ ear_axis, -1.0, 1.0))
    # Cutoff from ~1.2 kHz (fully shadowed) to ~20 kHz (ipsilateral).
    shadow = 0.5 * (1.0 - cos_angle)  # 0 ipsi, 1 contra
    cutoff = 20000.0 * (1.0 - shadow) + 1200.0 * shadow
    gain = 1.0 / np.sqrt(1.0 + (freqs / cutoff) ** 2)
    # Broadband ILD on top of spectral shaping.
    return gain * (1.0 - 0.35 * shadow)


@dataclass
class HrtfSet:
    """Frequency-domain ear responses for a virtual speaker layout."""

    sample_rate_hz: int = 48000
    n_speakers: int = 16
    fft_size: int = 2048
    order: int = 3
    speaker_directions: np.ndarray = field(init=False)
    responses: np.ndarray = field(init=False)  # (speakers, 2 ears, bins)

    def __post_init__(self) -> None:
        if self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError(f"sample rate must be positive and finite: {self.sample_rate_hz}")
        self.speaker_directions = fibonacci_directions(self.n_speakers)
        freqs = np.fft.rfftfreq(self.fft_size, d=1.0 / self.sample_rate_hz)
        responses = np.empty((self.n_speakers, 2, len(freqs)), dtype=complex)
        for s, direction in enumerate(self.speaker_directions):
            for e, ear_axis in enumerate((_LEFT, _RIGHT)):
                delay = interaural_delay(direction, ear_axis) + HEAD_RADIUS / SPEED_OF_SOUND
                gain = head_shadow_gain(direction, ear_axis, freqs)
                responses[s, e] = gain * np.exp(-2j * np.pi * freqs * delay)
        self.responses = responses
        self._decoder = decode_matrix(self.order, self.speaker_directions)

    def binauralize_block(
        self, soundfield: np.ndarray, tail: np.ndarray | None = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Render one (channels, block) soundfield block to stereo.

        Uses overlap-add: returns (stereo_block (2, block), new_tail) where
        ``tail`` carries the convolution overflow into the next block.
        """
        channels, block = soundfield.shape
        if channels != (self.order + 1) ** 2:
            raise ValueError(f"expected {(self.order + 1) ** 2} channels, got {channels}")
        if block > self.fft_size // 2:
            raise ValueError(f"block {block} too large for fft_size {self.fft_size}")
        speakers = self._decoder @ soundfield  # (S, block)
        spectra = np.fft.rfft(speakers, n=self.fft_size, axis=1)  # (S, bins)
        ears = np.einsum("sb,seb->eb", spectra, self.responses)   # (2, bins)
        rendered = np.fft.irfft(ears, n=self.fft_size, axis=1)    # (2, fft)
        out = rendered[:, :block].copy()
        if tail is not None:
            if tail.shape[0] != 2:
                raise ValueError("tail must be stereo")
            n = min(tail.shape[1], block)
            out[:, :n] += tail[:, :n]
        new_tail = rendered[:, block:].copy()
        if tail is not None and tail.shape[1] > block:
            carry = tail[:, block:]
            new_tail[:, : carry.shape[1]] += carry
        return out, new_tail
