"""An integrated run loads numpy, not scipy.

scipy serves the standalone kernels (SSIM, FLIP, the hologram solve, depth
preprocessing), and each imports it at its first call.  The
characterizations that time those kernels load it before their timers
start.  Nothing loads ``scipy.interpolate``: the distortion mesh is a numpy
port of its bilinear interpolation.  The checks need a fresh interpreter: in
a pytest run other tests' oracles have already loaded scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INTEGRATED_SCRIPT = """
import importlib
import sys

import numpy as np

from perfbench.workloads import PROGRAM_MODULES

for name in PROGRAM_MODULES:
    importlib.import_module(name)

from repro import CANNED_PLANS, DESKTOP, SystemConfig, build_runtime
from repro.resilience import SupervisorConfig

full = build_runtime(DESKTOP, "sponza", SystemConfig(duration_s=1.0, fidelity="full")).run()
assert full.summary()["vio_estimates"] > 0
build_runtime(
    DESKTOP,
    "materials",
    SystemConfig(duration_s=1.0),
    fault_plan=CANNED_PLANS["vio_crash_loop"](3),
    supervision=SupervisorConfig(),
    observability=True,
).run()
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"an integrated run loaded {loaded}"

from repro.metrics import one_minus_flip, ssim
from repro.visual.hologram import WeightedGerchbergSaxton

rng = np.random.default_rng(0)
image = rng.uniform(0.0, 1.0, (24, 32, 3))
assert ssim(image, image) == 1.0
assert 0.0 < one_minus_flip(image, np.clip(image + 0.1, 0.0, 1.0)) < 1.0
target = np.zeros((32, 32))
target[8:24, 8:24] = 1.0
result = WeightedGerchbergSaxton(resolution=32, depths_m=(0.1,)).solve([target], iterations=2)
assert 0.0 < result.efficiency <= 1.0
assert "scipy.ndimage" in sys.modules and "scipy.fft" in sys.modules
"""

# Each timed kernel records whether its scipy subpackage was loaded when a
# characterization called it, inside the timed region.  The check is on the
# cause, not on host-timed shares: a 0.3-0.7 s import in the first frame
# moves the shares by amounts that timing noise can hide.
CHARACTERIZE_SCRIPT = """
import sys

from repro.analysis.standalone import (
    characterize_hologram,
    characterize_reconstruction,
    characterize_reprojection,
)
from repro.perception.reconstruction import pipeline
from repro.visual import hologram

late = []


def timed_kernel(owner, name, module):
    kernel = getattr(owner, name)

    def checked(*args, **kwargs):
        if module not in sys.modules:
            late.append(f"{name} ran before {module} was loaded")
        return kernel(*args, **kwargs)

    setattr(owner, name, checked)


timed_kernel(pipeline.ReconstructionPipeline, "process_frame", "scipy.ndimage")
timed_kernel(hologram.WeightedGerchbergSaxton, "solve", "scipy.fft")

assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
characterize_hologram(iterations=2, resolution=32)
characterize_reprojection(frames=4)
characterize_reconstruction(frames=8)
assert not late, late
"""


# The lens-distortion mesh and the image-quality replay, in the order a
# characterize batch runs them.
NO_INTERPOLATE_SCRIPT = """
import sys

from repro import DESKTOP, SystemConfig, build_runtime
from repro.analysis.standalone import characterize_reprojection
from repro.metrics.qoe import evaluate_image_quality

characterize_reprojection(frames=2)
run = build_runtime(DESKTOP, "sponza", SystemConfig(duration_s=1.0, fidelity="full")).run()
assert evaluate_image_quality(run, max_frames=2).frames > 0
assert "scipy.ndimage" in sys.modules
loaded = sorted(
    name for name in sys.modules if name.split(".")[:2] == ["scipy", "interpolate"]
)
assert not loaded, f"loaded {loaded}"
"""


def _run_fresh(script):
    pythonpath = os.pathsep.join(
        filter(None, (str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_integrated_run_imports_no_scipy():
    _run_fresh(INTEGRATED_SCRIPT)


def test_characterizations_load_scipy_before_their_timers():
    _run_fresh(CHARACTERIZE_SCRIPT)


def test_reprojection_and_image_quality_load_no_scipy_interpolate():
    _run_fresh(NO_INTERPOLATE_SCRIPT)
