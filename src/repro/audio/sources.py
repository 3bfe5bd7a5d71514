"""Deterministic synthetic audio clips (the Freesound stand-ins).

The paper plays two 48 kHz clips -- a science-teacher lecture and a radio
recording [69], [70].  These generators synthesize speech-like and
music-like signals with the same roles: deterministic, band-limited, and
int16-quantized like real recordings (so the encoder's *normalization*
task has real work to do).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpeechLikeSource:
    """Amplitude-modulated filtered noise with formant-like resonances."""

    sample_rate_hz: int = 48000
    seed: int = 0
    position: np.ndarray = field(default_factory=lambda: np.array([2.0, 1.0, 1.6]))

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError(f"sample rate must be positive and finite: {self.sample_rate_hz}")
        self._rng = np.random.default_rng(self.seed)
        self._phase = 0
        self._lp_state = 0.0

    def block(self, n: int) -> np.ndarray:
        """Next ``n`` samples as int16 (like a WAV file read)."""
        t = (self._phase + np.arange(n)) / self.sample_rate_hz
        self._phase += n
        # Syllable-rate envelope (~4 Hz) with pauses.
        envelope = np.clip(np.sin(2 * np.pi * 3.7 * t) + 0.3, 0.0, 1.3)
        noise = self._rng.normal(0.0, 1.0, n)
        # Two formant-ish tones over the noise bed.
        voiced = 0.5 * np.sin(2 * np.pi * 220 * t) + 0.3 * np.sin(2 * np.pi * 540 * t + 1.0)
        raw = envelope * (0.5 * noise * 0.3 + voiced)
        # One-pole low-pass for a speech-like spectrum: a recurrence, so it
        # runs sample by sample, on Python floats.
        state = self._lp_state
        alpha = 0.25
        out = [state := state + alpha * (x - state) for x in raw.tolist()]
        self._lp_state = state
        return np.clip(np.array(out) * 20000, -32768, 32767).astype(np.int16)


@dataclass
class MusicLikeSource:
    """Chord arpeggios with a beat -- the radio-recording stand-in."""

    sample_rate_hz: int = 48000
    seed: int = 1
    position: np.ndarray = field(default_factory=lambda: np.array([-1.5, -2.0, 1.2]))

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError(f"sample rate must be positive and finite: {self.sample_rate_hz}")
        self._phase = 0
        self._notes = np.array([261.63, 329.63, 392.0, 523.25])  # C major

    def block(self, n: int) -> np.ndarray:
        """Next ``n`` samples as int16."""
        t = (self._phase + np.arange(n)) / self.sample_rate_hz
        self._phase += n
        note_index = (t * 4).astype(int) % len(self._notes)
        freq = self._notes[note_index]
        melody = np.sin(2 * np.pi * freq * t)
        beat = (np.sin(2 * np.pi * 2.0 * t) > 0.7).astype(float)
        kick = beat * np.sin(2 * np.pi * 60 * t) * np.exp(-((t * 4) % 1) * 8)
        raw = 0.6 * melody + 0.6 * kick
        return np.clip(raw * 18000, -32768, 32767).astype(np.int16)
