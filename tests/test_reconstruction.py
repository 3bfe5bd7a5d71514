"""Unit tests for TSDF scene reconstruction: volume, raycast, ICP, pipeline."""

import numpy as np
import pytest

from repro.maths.se3 import Pose
from repro.perception.reconstruction.icp import icp_point_to_plane, vertex_map_from_depth
from repro.perception.reconstruction.pipeline import TASK_NAMES, ReconstructionPipeline
from repro.perception.reconstruction.raycast import raycast
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.sensors.depth import DepthCamera, DepthScene


@pytest.fixture(scope="module")
def camera():
    return DepthCamera(DepthScene.default(seed=3), width=48, height=36, noise_std=0.0)


@pytest.fixture(scope="module")
def fused_volume(camera):
    volume = TsdfVolume(resolution=64)
    pose = Pose(np.array([0.5, 0.2, 1.6]))
    for dz in (-0.1, 0.0, 0.1):
        p = Pose(pose.position + np.array([0.0, 0.0, dz]))
        volume.integrate(camera.render(p, noisy=False), p, camera)
    return volume, pose


def test_volume_initially_unobserved():
    volume = TsdfVolume(resolution=16)
    assert volume.occupied_fraction == 0.0
    values, valid = volume.sample(np.array([[0.0, 0.0, 1.0]]))
    assert not valid[0]
    assert values[0] == 1.0


def test_integrate_updates_voxels(camera):
    volume = TsdfVolume(resolution=32)
    pose = Pose(np.array([0.0, 0.0, 1.5]))
    updated = volume.integrate(camera.render(pose, noisy=False), pose, camera)
    assert updated > 100
    assert volume.occupied_fraction > 0.0


def test_tsdf_sign_convention(fused_volume, camera):
    """Voxels in front of a wall have positive TSDF; behind, negative."""
    volume, pose = fused_volume
    h = camera.scene.room_half_extent
    # The +x wall is at x = h; sample just inside and just outside.
    in_front = np.array([[h - 0.08, pose.position[1], 1.6]])
    behind = np.array([[h + 0.08, pose.position[1], 1.6]])
    v_front, ok_front = volume.sample(in_front)
    v_behind, ok_behind = volume.sample(behind)
    if ok_front[0]:
        assert v_front[0] > 0
    if ok_behind[0]:
        assert v_behind[0] < 0.5  # truncated-negative or unobserved


def test_tsdf_values_bounded(fused_volume):
    volume, _ = fused_volume
    assert volume.tsdf.max() <= 1.0
    assert volume.tsdf.min() >= -1.0


def test_sample_trilinear_interpolates(fused_volume, camera):
    volume, pose = fused_volume
    # Near the +x wall the TSDF ramps through the truncation band, so
    # sub-voxel motion must change the interpolated value.
    h = camera.scene.room_half_extent
    point = np.array([h - 0.06, pose.position[1], 1.6])
    a, ok = volume.sample(point[None])
    assert ok[0]
    offset = np.array([volume.voxel_size * 0.5, 0.0, 0.0])
    b, _ = volume.sample(point[None] + offset)
    assert a[0] != b[0]  # interpolation responds to sub-voxel motion


def test_gradient_points_along_increasing_distance(fused_volume, camera):
    volume, pose = fused_volume
    h = camera.scene.room_half_extent
    point = np.array([[h - 0.15, pose.position[1], 1.6]])
    grad = volume.gradient(point)
    # Approaching the +x wall decreases the signed distance: gradient x < 0.
    assert grad[0, 0] < 0


def test_volume_validation():
    with pytest.raises(ValueError):
        TsdfVolume(resolution=4)
    with pytest.raises(ValueError):
        TsdfVolume(truncation_m=0.0)
    for kwargs in (
        {"extent_m": 0.0},
        {"extent_m": -8.0},
        {"extent_m": float("nan")},
        {"extent_m": float("inf")},
        {"max_weight": 0.0},
        {"max_weight": float("nan")},
        {"truncation_m": float("nan")},
        {"truncation_m": float("inf")},
    ):
        with pytest.raises(ValueError):
            TsdfVolume(resolution=16, **kwargs)


def test_raycast_matches_analytic_depth(fused_volume, camera):
    volume, pose = fused_volume
    result = raycast(volume, pose, camera)
    analytic = camera.render(pose, noisy=False)
    both = result.valid & (analytic > 0)
    assert both.mean() > 0.5
    error = np.abs(result.depth[both] - analytic[both])
    assert np.median(error) < 0.06


def test_raycast_normals_unit_and_camera_facing(fused_volume, camera):
    volume, pose = fused_volume
    result = raycast(volume, pose, camera)
    normals = result.normals[result.valid]
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-6)


def test_raycast_step_validation(fused_volume, camera):
    volume, pose = fused_volume
    with pytest.raises(ValueError):
        raycast(volume, pose, camera, step_fraction=0.0)


def test_vertex_map_from_depth(camera):
    depth = camera.render(Pose(np.array([0.0, 0.0, 1.5])), noisy=False)
    vertex = vertex_map_from_depth(depth, camera)
    assert vertex.shape == (36, 48, 3)
    assert np.allclose(vertex[..., 2], depth)


def test_icp_improves_coarse_guess(fused_volume, camera):
    volume, pose = fused_volume
    model = raycast(volume, pose, camera)
    depth = camera.render(pose, noisy=False)
    guess = Pose(pose.position + np.array([0.12, -0.08, 0.05]), pose.orientation)
    result = icp_point_to_plane(depth, camera, guess, model, pose)
    assert result.pose.translation_error(pose) < guess.translation_error(pose)
    assert result.inlier_fraction > 0.2


def test_icp_stays_near_exact_guess(fused_volume, camera):
    volume, pose = fused_volume
    model = raycast(volume, pose, camera)
    depth = camera.render(pose, noisy=False)
    result = icp_point_to_plane(depth, camera, pose, model, pose)
    assert result.pose.translation_error(pose) < 0.06


def test_pipeline_stages_and_tracking(camera):
    from repro.sensors.trajectory import lab_walk_trajectory

    pipeline = ReconstructionPipeline(camera)
    trajectory = lab_walk_trajectory(duration=5.0, seed=3)
    rng = np.random.default_rng(0)
    errors = []
    for i in range(8):
        t = i * 0.4
        sample = trajectory.sample(t)
        truth = Pose(sample.position, sample.orientation, timestamp=t)
        depth = camera.render(truth)
        guess = Pose(truth.position + rng.normal(0, 0.03, 3), truth.orientation, timestamp=t)
        result = pipeline.process_frame(depth, guess)
        errors.append(result.pose.translation_error(truth))
    assert set(pipeline.task_breakdown()) == set(TASK_NAMES)
    assert all(v > 0 for v in pipeline.task_breakdown().values())
    assert np.mean(errors[2:]) < 0.15
    assert pipeline.volume.occupied_fraction > 0.0


def test_pipeline_first_frame_bootstraps(camera):
    pipeline = ReconstructionPipeline(camera)
    pose = Pose(np.array([0.0, 0.0, 1.5]))
    result = pipeline.process_frame(camera.render(pose), pose)
    assert result.icp is None  # no model yet
    assert result.voxels_updated > 0


def test_camera_processing_rejects_invalid_depth(camera):
    pipeline = ReconstructionPipeline(camera)
    depth = np.full((36, 48), 100.0)  # beyond max valid depth
    cleaned = pipeline._camera_processing(depth)
    assert np.all(cleaned == 0.0)
