"""Shared hot-path machinery: the plan cache and host timing.

Per-component deadlines (Table I of the paper) leave each kernel a 2-20 ms
budget per frame, so the hot paths — WGS holography, TSDF fusion, the
SSIM/FLIP image metrics — cannot afford the naive one-item-at-a-time style.
This package collects what those kernels share:

- :mod:`repro.perf.cache` -- :class:`PlanCache`, which memoizes expensive
  precomputed operator arrays (e.g. angular-spectrum transfer stacks);
- :mod:`repro.perf.profile` -- :class:`TaskTimer`, the one host-time
  primitive behind every Table VI/VII task breakdown and every kernel's
  :func:`span`, plus :func:`enable_profiling` and :func:`profile_summary`,
  opt-in wall-clock recording of those blocks.

Each kernel has one implementation.  The formulations the WGS and TSDF
kernels were derived from live in ``tests/kernel_oracles.py``, where the
tests check parity against them (see ``docs/performance.md``).
"""

from repro.perf.cache import PlanCache, global_plan_cache
from repro.perf.profile import TaskTimer, enable_profiling, profile_summary, span

__all__ = [
    "PlanCache",
    "TaskTimer",
    "enable_profiling",
    "global_plan_cache",
    "profile_summary",
    "span",
]
