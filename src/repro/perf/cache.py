"""Plan cache for the hot-path kernels.

Plans are expensive, immutable precomputations derived entirely from a
small parameter tuple, such as the angular-spectrum transfer stack of a
hologram solver.  :class:`PlanCache` memoizes them by key, so benchmark
sweeps that build many identically configured kernels pay the
construction cost once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

#: Plans one cache holds before it drops its oldest.
MAX_ENTRIES = 64


class PlanCache:
    """Memoize immutable precomputed arrays keyed by their parameters."""

    def __init__(self) -> None:
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
            if len(self._plans) >= MAX_ENTRIES:
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


#: Process-wide plan cache shared by the hot-path kernels.
global_plan_cache = PlanCache()
