"""The audio-encoding component: mono sources -> HOA soundfield.

Task accounting mirrors Table VII's audio-encoding rows:

- ``normalization``: INT16 -> FP32 element-wise division;
- ``encoding``: sample-to-soundfield mapping ``Y[j][i] = D x X[j]``;
- ``summation``: channel-wise accumulation across sources.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Protocol, Tuple

import numpy as np

from repro.audio.ambisonics import ambisonic_channels, real_sh_matrix

# Distinct source directions whose SH gains an encoder keeps.
_GAIN_CACHE_SIZE = 64


class MonoSource(Protocol):
    """Anything producing int16 blocks at a fixed position."""

    position: np.ndarray

    def block(self, n: int) -> np.ndarray:
        """Next ``n`` int16 samples."""
        ...


@dataclass
class AudioEncoder:
    """Encodes a set of positioned mono sources into one HOA soundfield."""

    sources: List[MonoSource]
    order: int = 3
    block_size: int = 1024

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("need at least one source")
        if not 0 <= self.order <= 3:
            raise ValueError(f"order must be in [0, 3]: {self.order}")
        if not 256 <= self.block_size <= 2048:
            raise ValueError(f"block size out of range: {self.block_size}")
        self.task_times: Dict[str, float] = defaultdict(float)
        self._gains: Dict[Tuple[float, float, float], np.ndarray] = {}

    @property
    def channels(self) -> int:
        """Number of HOA channels produced."""
        return ambisonic_channels(self.order)

    def encode_next_block(self, listener_position: np.ndarray | None = None) -> np.ndarray:
        """Produce the next (channels, block_size) soundfield block.

        Source directions are taken relative to ``listener_position``
        (default: origin); rotation by head orientation happens in
        playback, as in a real ambisonic pipeline.
        """
        lx, ly, lz = (
            (0.0, 0.0, 0.0)
            if listener_position is None
            else np.asarray(listener_position, dtype=float).tolist()
        )
        soundfield = np.zeros((self.channels, self.block_size))
        for source in self.sources:
            raw = source.block(self.block_size)

            t0 = time.perf_counter()
            normalized = raw.astype(np.float32) / 32768.0
            self.task_times["normalization"] += time.perf_counter() - t0

            px, py, pz = np.asarray(source.position, dtype=float).tolist()
            direction = (px - lx, py - ly, pz - lz)

            t0 = time.perf_counter()
            encoded = np.outer(self._direction_gains(direction), normalized)
            self.task_times["encoding"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            soundfield += encoded
            self.task_times["summation"] += time.perf_counter() - t0
        return soundfield

    def _direction_gains(self, direction: Tuple[float, float, float]) -> np.ndarray:
        """SH gains of one source direction, computed once per distinct value.

        A source on the listener is heard from straight ahead (+x).  The
        oldest direction is evicted once the cache holds
        ``_GAIN_CACHE_SIZE``, so moving sources keep it bounded.
        """
        gains = self._gains.get(direction)
        if gains is None:
            vector = np.array(direction)
            if np.linalg.norm(vector) < 1e-9:
                vector = np.array([1.0, 0.0, 0.0])
            if len(self._gains) >= _GAIN_CACHE_SIZE:
                del self._gains[next(iter(self._gains))]
            gains = real_sh_matrix(self.order, vector)[0]
            gains.setflags(write=False)
            self._gains[direction] = gains
        return gains

    def task_breakdown(self) -> Dict[str, float]:
        """Accumulated seconds per Table VII task."""
        return {k: self.task_times.get(k, 0.0) for k in ("normalization", "encoding", "summation")}
