"""Tests for the keyframe database and loop-closure behaviour (§IV-B1)."""

import numpy as np
import pytest

from repro.maths.quaternion import quat_from_axis_angle
from repro.maths.se3 import Pose
from repro.perception.reconstruction.keyframes import (
    KeyframeDatabase,
    depth_signature,
)
from repro.perception.reconstruction.pipeline import ReconstructionPipeline
from repro.perf.profile import enable_profiling, profile_summary
from repro.sensors.depth import DepthCamera, DepthScene


@pytest.fixture(scope="module")
def camera():
    return DepthCamera(DepthScene.default(), width=48, height=36, noise_std=0.0)


def _orbit_pose(i, n):
    # Off-center: a square room viewed from its center aliases 90-degree
    # rotations onto near-identical depth signatures.
    yaw = 2 * np.pi * i / n
    return Pose(
        np.array([1.0, 0.5, 1.5]),
        quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw),
        timestamp=i * 0.2,
    )


def test_signature_linear_in_depth(camera):
    """Fixed-reference normalization: scaling the scene scales the
    signature (absolute depth is intentionally preserved -- see the
    perceptual-aliasing note in keyframes.py)."""
    depth = camera.render(_orbit_pose(0, 40), noisy=False)
    near = depth_signature(depth)
    far = depth_signature(depth * 1.5)
    assert np.allclose(far, 1.5 * near, atol=1e-9)


def test_signature_differs_across_views(camera):
    a = depth_signature(camera.render(_orbit_pose(0, 40), noisy=False))
    b = depth_signature(camera.render(_orbit_pose(5, 40), noisy=False))
    assert np.abs(a - b).mean() > 0.06


def test_signature_validation():
    with pytest.raises(ValueError):
        depth_signature(np.ones((10, 10)), grid=1)


def test_database_matches_revisited_view(camera):
    database = KeyframeDatabase(every_n_frames=2, min_separation=10)
    matches = []
    n = 40
    for i in range(n + 8):  # go past a full orbit: revisit the start
        depth = camera.render(_orbit_pose(i, n), noisy=False)
        match, _ = database.observe(depth, _orbit_pose(i, n))
        if match is not None:
            matches.append((i, match.index))
    assert matches, "revisiting the start view must trigger a match"
    first_i, matched_index = matches[0]
    assert first_i >= n - 2                   # fires on the revisit
    assert first_i - matched_index >= 10      # against an old keyframe


def test_database_respects_cooldown(camera):
    database = KeyframeDatabase(every_n_frames=2, min_separation=10, cooldown=10)
    fires = []
    n = 40
    for i in range(n + 20):
        depth = camera.render(_orbit_pose(i, n), noisy=False)
        match, _ = database.observe(depth, _orbit_pose(i, n))
        if match is not None:
            fires.append(i)
    for a, b in zip(fires, fires[1:]):
        assert b - a > 10


def test_database_no_match_on_first_pass(camera):
    database = KeyframeDatabase(every_n_frames=2, min_separation=10)
    for i in range(30):
        depth = camera.render(_orbit_pose(i, 40), noisy=False)
        match, _ = database.observe(depth, _orbit_pose(i, 40))
        assert match is None  # nothing revisited yet


@pytest.mark.slow
def test_pipeline_loop_closure_causes_time_spike(camera):
    """The §IV-B1 spike, as work: a loop-closure frame integrates every
    stored keyframe and itself twice, any other frame itself once."""
    enable_profiling()
    pipeline = ReconstructionPipeline(camera)
    n = 40
    for i in range(n + 8):
        pose = _orbit_pose(i, n)
        result = pipeline.process_frame(camera.render(pose, noisy=False), pose)
        expected = len(pipeline.keyframes.keyframes) + 2 if result.loop_closure else 1
        assert profile_summary(reset=True)["tsdf.integrate"]["calls"] == expected, i
    assert pipeline.loop_closures >= 1


@pytest.mark.slow
def test_pipeline_loop_closure_can_be_disabled(camera):
    pipeline = ReconstructionPipeline(camera, enable_loop_closure=False)
    n = 40
    for i in range(n + 8):
        pose = _orbit_pose(i, n)
        result = pipeline.process_frame(camera.render(pose, noisy=False), pose)
        assert not result.loop_closure
    assert pipeline.loop_closures == 0
