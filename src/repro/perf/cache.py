"""Plan and scratch-array caches for the hot-path kernels.

Two distinct reuse patterns show up in the hot paths:

1. **Plans** -- expensive, immutable precomputations derived entirely from a
   small parameter tuple (the angular-spectrum transfer stack of a hologram
   solver, the voxel-block tables of a TSDF volume).  :class:`PlanCache`
   memoizes these by key so benchmark sweeps that build many identically
   configured kernels pay the construction cost once.

2. **Scratch buffers** -- per-call temporaries whose shape is stable across
   calls (the WGS constraint ratio, metric filter stacks).  :class:`ArrayCache`
   hands back the same named buffer on every request, eliminating the
   allocation from steady-state frames.  Callers own serialization: a named
   scratch buffer must not be used re-entrantly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Tuple

import numpy as np


class PlanCache:
    """Memoize immutable precomputed arrays keyed by their parameters."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._plans: Dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached plan for ``key``, building it on first use."""
        try:
            plan = self._plans[key]
        except KeyError:
            self.misses += 1
            plan = builder()
            if len(self._plans) >= self.max_entries:
                # Drop the oldest entry (dict preserves insertion order).
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
            return plan
        self.hits += 1
        return plan

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._plans

    def clear(self) -> None:
        self._plans.clear()
        self.hits = 0
        self.misses = 0


class ArrayCache:
    """Named scratch buffers, reused when shape and dtype match.

    ``scratch("wgs.ratio", (3, 128, 128))`` returns the same array on every
    call with matching shape/dtype, uninitialized (the caller must overwrite
    it fully or request zeroing).  A shape or dtype change rebuilds the
    buffer, so resolution changes stay correct, merely un-cached.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def scratch(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype: np.dtype | type = np.float64,
        zeroed: bool = False,
    ) -> np.ndarray:
        """A reusable buffer of ``shape``/``dtype`` registered under ``name``."""
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != tuple(shape) or buffer.dtype != np.dtype(dtype):
            buffer = np.zeros(shape, dtype=dtype)
            self._buffers[name] = buffer
            return buffer
        if zeroed:
            buffer.fill(0)
        return buffer

    def __len__(self) -> int:
        return len(self._buffers)

    def nbytes(self) -> int:
        """Total bytes currently held by the cache."""
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


#: Process-wide caches shared by the hot-path kernels.
global_plan_cache = PlanCache()
global_scratch = ArrayCache()
