"""Heap footprint bounds for the standalone kernels' largest transients.

The benchmark's ``characterize`` workload peaks at its resident imports
plus the largest transient of one kernel step, and the two largest are
building and fusing into a ``TsdfVolume`` and one eye-tracker training
step.  numpy reports its buffers to ``tracemalloc``, so each step's heap
peak is the same on every run of a given numpy; the bars are the current
peaks plus a margin for other numpy releases.  Resident set size varies by
host and is not asserted.
"""

import tracemalloc

from repro.maths.se3 import Pose
from repro.perception.eye_tracking import EyeTracker
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.sensors.depth import DepthCamera, DepthScene
from repro.sensors.eye import EyeImageGenerator
from repro.sensors.trajectory import lab_walk_trajectory

MIB = 2**20


def heap_peak(step):
    """Peak bytes ``step()`` holds on the traced heap at once."""
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tsdf_build_and_fuse_peak():
    """The default 96^3 volume and one 80x60 frame, as the reconstruction
    characterization fuses it: 22.1 MiB; a stored voxel-center table and
    int64 block indices read 48.1."""
    camera = DepthCamera(DepthScene.default(seed=3), width=80, height=60, seed=3)
    sample = lab_walk_trajectory(duration=3.0, seed=3).sample(0.0)
    pose = Pose(sample.position, sample.orientation)
    depth = camera.render(pose)

    def step():
        assert TsdfVolume().integrate(depth, pose, camera) > 0

    assert heap_peak(step) < 30 * MIB


def test_eye_tracker_training_step_peak():
    """One step at batch 8x48x64: 23.2 MiB; holding every layer's im2col
    patches until the step ends reads 39.0."""
    tracker = EyeTracker(seed=0)
    generator = EyeImageGenerator(seed=0)
    assert generator.batch(1)[0].image.shape == (48, 64)
    assert heap_peak(lambda: tracker.train(generator, steps=1)) < 30 * MIB
