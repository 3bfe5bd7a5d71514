"""Disabled-profiling cost of ``span()`` against the kernels it times.

The WGS solve, TSDF integrate, SSIM and FLIP each wrap their body in one
``with span(...)`` block.  With profiling disabled -- the default, and the
state of every run that does not call ``enable_profiling`` -- the block
only builds a one-task ``TaskTimer`` and reads the clock twice.  That cost
must stay under 3% of each kernel.

A ~1 µs cost cannot be resolved by timing a millisecond kernel with and
without it, so it is measured where it is visible: an empty block in a
tight loop minus the empty loop, best of 5.  Each kernel's time is its
best of 9 calls at small sizes (WGS: 3 planes at 32², 1 iteration; TSDF:
32³ voxels, one 80x60 depth frame; SSIM and FLIP: 60x80 colour pairs),
where the block's share is largest.

Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_instrumentation_overhead.py
"""

import time

import numpy as np

from repro.maths.se3 import Pose
from repro.metrics.flip import flip
from repro.metrics.ssim import ssim
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.perf import profile, span
from repro.sensors.depth import DepthCamera, DepthScene
from repro.visual.hologram import WeightedGerchbergSaxton

MAX_SHARE = 0.03


def _best_s(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _disabled_span_s(loops=20_000):
    """Per-block cost of an empty ``with span(...)`` block."""

    def blocks():
        for _ in range(loops):
            with span("overhead.empty"):
                pass

    def empty():
        for _ in range(loops):
            pass

    blocks()  # warm up
    return max(_best_s(blocks, 5) - _best_s(empty, 5), 0.0) / loops


def _kernels():
    """Name -> zero-argument call of each kernel at its small size."""
    rng = np.random.default_rng(7)
    depths = (0.05, 0.10, 0.20)
    assignment = rng.integers(0, len(depths), (32, 32))
    luminance = rng.random((32, 32))
    targets = [np.where(assignment == k, luminance, 0.0) for k in range(len(depths))]
    solver = WeightedGerchbergSaxton(resolution=32, depths_m=depths)

    camera = DepthCamera(DepthScene.default(seed=3), width=80, height=60, noise_std=0.0)
    pose = Pose(np.array([0.5, 0.2, 1.6]), np.array([1.0, 0.0, 0.0, 0.0]))
    depth = camera.render(pose, noisy=False)
    volume = TsdfVolume(resolution=32)

    reference = rng.random((60, 80, 3))
    test = np.clip(reference + rng.normal(0.0, 0.05, reference.shape), 0.0, 1.0)
    return {
        "hologram.solve": lambda: solver.solve(targets, iterations=1, seed=0),
        "tsdf.integrate": lambda: volume.integrate(depth, pose, camera),
        "metrics.ssim": lambda: ssim(reference, test),
        "metrics.flip": lambda: flip(reference, test),
    }


def test_disabled_span_costs_under_3_percent_of_each_kernel(monkeypatch):
    monkeypatch.setattr(profile, "_enabled", False)
    monkeypatch.setattr(profile, "_tracer", None)
    block_s = _disabled_span_s()
    print(f"\ndisabled span() block: {block_s * 1e6:.2f} µs")
    shares = {}
    for name, call in _kernels().items():
        kernel_s = _best_s(call, 9)
        shares[name] = block_s / kernel_s
        print(f"{name:16s} {kernel_s * 1e3:8.3f} ms   span share {shares[name]:7.3%}")
    over = {name: share for name, share in shares.items() if share > MAX_SHARE}
    assert not over, f"disabled span() costs more than {MAX_SHARE:.0%} of: {over}"
