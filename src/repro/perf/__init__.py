"""Shared hot-path machinery: FFT helpers, caches, pools, host timing.

Per-component deadlines (Table I of the paper) leave each kernel a 2-20 ms
budget per frame, so the hot paths — WGS holography, TSDF fusion, the
SSIM/FLIP image metrics — cannot afford the naive one-item-at-a-time style.
This package collects the machinery those kernels share:

- :mod:`repro.perf.fft` -- batched 2-D FFT helpers over a ``(..., N, N)``
  stack (one backend call instead of a Python loop of transforms);
- :mod:`repro.perf.cache` -- :class:`PlanCache` for memoizing expensive
  precomputed operator arrays (e.g. angular-spectrum transfer stacks) and
  :class:`ArrayCache` for reusable scratch buffers;
- :mod:`repro.perf.parallel` -- :func:`parallel_map`, a process-pool map
  with a sequential fallback, for embarrassingly parallel benchmark sweeps;
- :mod:`repro.perf.profile` -- :class:`TaskTimer`, the one host-time
  primitive behind every Table VI/VII task breakdown and :func:`span`, plus
  the :func:`profiled` decorator and :func:`profile_summary`, opt-in
  wall-clock instrumentation of the kernels and tasks.

Each kernel has one implementation.  The formulations the WGS and TSDF
kernels were derived from live in ``tests/kernel_oracles.py``, where the
tests and ``benchmarks/perf_harness.py`` check parity against them (see
``docs/performance.md``).
"""

from repro.perf.cache import ArrayCache, PlanCache, global_plan_cache, global_scratch
from repro.perf.fft import FFT_BACKEND, batched_fft2, batched_ifft2, fft2, ifft2
from repro.perf.parallel import parallel_map
from repro.perf.profile import (
    TaskTimer,
    enable_profiling,
    profile_summary,
    profiled,
    profiling_enabled,
    reset_profile,
    span,
)

__all__ = [
    "ArrayCache",
    "FFT_BACKEND",
    "PlanCache",
    "TaskTimer",
    "batched_fft2",
    "batched_ifft2",
    "enable_profiling",
    "fft2",
    "global_plan_cache",
    "global_scratch",
    "ifft2",
    "parallel_map",
    "profile_summary",
    "profiled",
    "profiling_enabled",
    "reset_profile",
    "span",
]
