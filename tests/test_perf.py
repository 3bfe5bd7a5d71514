"""Tests for the hot-path acceleration layer (``repro.perf``).

Two kinds of guarantees:

- **Parity**: the WGS and TSDF kernels must reproduce the formulations kept
  in ``tests/kernel_oracles.py`` -- bit-exact for TSDF culling, which only
  skips voxels that cannot project into the image, and to atol 1e-8 for
  WGS, where FFT batching reassociates floating-point sums.
- **Utilities**: the plan cache, the task timer and the profiling hooks
  behave as documented.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from repro.maths.quaternion import matrix_to_quat, quat_from_axis_angle
from repro.maths.se3 import Pose
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.perf import (
    PlanCache,
    TaskTimer,
    enable_profiling,
    profile_summary,
    profiled,
    profiling_enabled,
    reset_profile,
    span,
)
from repro.sensors.depth import DepthCamera, DepthScene
from repro.visual.hologram import WeightedGerchbergSaxton
from tests.kernel_oracles import ReferenceWgs, integrate_full_grid


# ---------------------------------------------------------------------------
# Hologram: batched WGS vs. the per-plane oracle
# ---------------------------------------------------------------------------


def _focal_targets(n, planes, seed):
    """Focal-stack-style targets: luminance partitioned across planes."""
    rng = np.random.default_rng(seed)
    depthmap = gaussian_filter(rng.random((n, n)), n / 16)
    edges = np.quantile(depthmap, [(k + 1) / planes for k in range(planes - 1)])
    assignment = np.digitize(depthmap, edges)
    luminance = gaussian_filter(rng.random((n, n)), 2)
    return [np.where(assignment == k, luminance, 0.0) for k in range(planes)]


def _assert_wgs_matches_oracle(solver, targets, iterations, seed):
    acc = solver.solve(targets, iterations=iterations, seed=seed)
    ref = ReferenceWgs(solver).solve(targets, iterations=iterations, seed=seed)
    assert np.allclose(acc.phase, ref.phase, atol=1e-8)
    for acc_amp, ref_amp in zip(acc.plane_amplitudes, ref.plane_amplitudes):
        assert np.allclose(acc_amp, ref_amp, atol=1e-8)
    assert acc.efficiency == pytest.approx(ref.efficiency, abs=1e-8)
    assert acc.uniformity == pytest.approx(ref.uniformity, abs=1e-8)
    assert acc.iterations == ref.iterations
    return acc, ref


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wgs_accelerated_matches_reference(seed):
    depths = (0.05, 0.12)
    targets = _focal_targets(64, len(depths), seed)
    solver = WeightedGerchbergSaxton(resolution=64, depths_m=depths)
    acc, ref = _assert_wgs_matches_oracle(solver, targets, iterations=5, seed=seed)
    assert set(acc.task_times) == set(ref.task_times)


def test_wgs_accelerated_handles_empty_plane():
    # A plane with no target pixels must not poison the weights.
    depths = (0.05, 0.12)
    targets = _focal_targets(64, 2, seed=5)
    targets[1] = np.zeros_like(targets[1])
    solver = WeightedGerchbergSaxton(resolution=64, depths_m=depths)
    acc, _ref = _assert_wgs_matches_oracle(solver, targets, iterations=4, seed=5)
    assert np.isfinite(acc.efficiency)


@settings(max_examples=30, deadline=None)
@given(
    resolution=st.sampled_from((16, 32, 64)),
    depths=st.lists(
        st.sampled_from((0.03, 0.05, 0.08, 0.12, 0.2)), min_size=1, max_size=3, unique=True
    ),
    zero_plane=st.one_of(st.none(), st.integers(0, 2)),
    iterations=st.integers(0, 6),
    seed=st.integers(0, 2**16),
)
@example(resolution=32, depths=[0.05], zero_plane=None, iterations=3, seed=0)
@example(resolution=32, depths=[0.05], zero_plane=0, iterations=3, seed=0)
@example(resolution=32, depths=[0.05, 0.12, 0.2], zero_plane=1, iterations=6, seed=1)
def test_wgs_matches_oracle_on_drawn_focal_stacks(resolution, depths, zero_plane, iterations, seed):
    """One to three planes, an all-zero plane among them or not."""
    targets = _focal_targets(resolution, len(depths), seed)
    if zero_plane is not None and zero_plane < len(depths):
        targets[zero_plane] = np.zeros_like(targets[zero_plane])
    solver = WeightedGerchbergSaxton(resolution=resolution, depths_m=tuple(depths))
    _assert_wgs_matches_oracle(solver, targets, iterations, seed)


def test_wgs_transfer_stack_is_cached():
    a = WeightedGerchbergSaxton(resolution=32, depths_m=(0.05, 0.12))
    b = WeightedGerchbergSaxton(resolution=32, depths_m=(0.05, 0.12))
    assert a._transfer_stack is b._transfer_stack


# ---------------------------------------------------------------------------
# TSDF: frustum-culled integration vs. the full-grid oracle
# ---------------------------------------------------------------------------


def _tsdf_poses():
    return [
        Pose(
            np.array([0.5 + 0.1 * i, 0.2 - 0.05 * i, 1.6]),
            np.array([np.cos(0.1 * i), 0.0, 0.0, np.sin(0.1 * i)]),
        )
        for i in range(3)
    ]


def test_tsdf_culled_integration_is_bit_exact():
    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, noise_std=0.0)
    poses = _tsdf_poses()
    frames = [camera.render(p, noisy=False) for p in poses]

    ref_volume = TsdfVolume(resolution=48)
    acc_volume = TsdfVolume(resolution=48)
    for depth, pose in zip(frames, poses):
        integrate_full_grid(ref_volume, depth, pose, camera)
        acc_volume.integrate(depth, pose, camera)

    assert np.array_equal(ref_volume.tsdf, acc_volume.tsdf)
    assert np.array_equal(ref_volume.weight, acc_volume.weight)


def test_tsdf_culling_discards_blocks():
    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, noise_std=0.0)
    volume = TsdfVolume(resolution=48)
    pose = _tsdf_poses()[0]
    visible = volume._visible_voxels(pose, camera)
    # The frustum of a 40x30 camera sees a small fraction of the room.
    assert 0 < visible.size < 0.5 * volume.resolution**3


# The default volume spans x, y in [-4, 4] and z in [-1, 7] m: no block
# center lies farther than 4*sqrt(3) ~ 6.93 m from this center, and no
# block's bounding sphere (8 voxels of 8/9 m at resolution 9) is wider than
# 7 * 8/9 * sqrt(3) / 2 ~ 5.39 m in radius.
_VOLUME_CENTER = np.array([0.0, 0.0, 3.0])
_UNIT = st.floats(-1.0, 1.0)
_DIRECTIONS = (
    st.tuples(_UNIT, _UNIT, _UNIT)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)


@st.composite
def _free_poses(draw):
    """Any orientation, inside the volume or up to 6 m outside it."""
    position = np.array(
        [draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)), draw(st.floats(-7.0, 13.0))]
    )
    orientation = quat_from_axis_angle(draw(_DIRECTIONS), draw(st.floats(-np.pi, np.pi)))
    return Pose(position, orientation)


@st.composite
def _facing_away_poses(draw):
    """Far enough outside the volume, looking straight away from it, that
    every block's bounding sphere lies behind the camera: none survives."""
    away = draw(_DIRECTIONS)
    position = _VOLUME_CENTER + draw(st.floats(12.5, 18.0)) * away
    # Body x (the camera's optical axis) along ``away``, any roll about it.
    helper = np.array([0.0, 0.0, 1.0]) if abs(away[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    side = np.cross(helper, away)
    side /= np.linalg.norm(side)
    up = np.cross(away, side)
    roll = draw(st.floats(-np.pi, np.pi))
    y_axis = np.cos(roll) * side + np.sin(roll) * up
    rotation = np.column_stack([away, y_axis, np.cross(away, y_axis)])
    return Pose(position, matrix_to_quat(rotation))


def _pose(position, axis, angle):
    axis = np.asarray(axis, dtype=float)
    return Pose(np.asarray(position, dtype=float), quat_from_axis_angle(axis / np.linalg.norm(axis), angle))


@settings(max_examples=40, deadline=None)
@given(
    resolution=st.integers(9, 40).filter(lambda n: n % 8),
    max_weight=st.sampled_from((1.0, 2.0, 64.0)),
    poses=st.lists(st.one_of(_free_poses(), _facing_away_poses()), min_size=1, max_size=4),
)
# On each of these, culling without its one-pixel slack drops one voxel
# that the full grid fuses.
@example(resolution=20, max_weight=64.0, poses=[_pose((-2.9, 2.6, 0.6), (-0.8, 0.4, -0.1), -0.6)])
@example(resolution=39, max_weight=64.0, poses=[_pose((-2.6, -2.8, 1.2), (0.9, 0.5, 1.4), 1.7)])
def test_tsdf_culled_matches_oracle_on_drawn_poses(resolution, max_weight, poses):
    """Partial edge blocks, poses inside, outside and facing away from the
    volume, and the weight cap: grids and counts bitwise equal the oracle."""
    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, noise_std=0.0)
    culled = TsdfVolume(resolution=resolution, max_weight=max_weight)
    full = TsdfVolume(resolution=resolution, max_weight=max_weight)
    for pose in poses:
        depth = camera.render(pose, noisy=False)
        assert culled.integrate(depth, pose, camera) == integrate_full_grid(
            full, depth, pose, camera
        )
        assert np.array_equal(culled.tsdf, full.tsdf)
        assert np.array_equal(culled.weight, full.weight)


@settings(max_examples=15, deadline=None)
@given(pose=_facing_away_poses(), resolution=st.integers(9, 40))
def test_tsdf_facing_away_culls_every_block(pose, resolution):
    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, noise_std=0.0)
    volume = TsdfVolume(resolution=resolution)
    assert volume._visible_voxels(pose, camera).size == 0
    assert volume.integrate(camera.render(pose, noisy=False), pose, camera) == 0
    assert not volume.weight.any()


# ---------------------------------------------------------------------------
# Plan / array caches
# ---------------------------------------------------------------------------


def test_plan_cache_builds_once():
    cache = PlanCache()
    calls = []
    build = lambda: calls.append(1) or np.ones(3)  # noqa: E731
    first = cache.get_or_build("k", build)
    second = cache.get_or_build("k", build)
    assert first is second
    assert len(calls) == 1
    assert cache.hits == 1 and cache.misses == 1
    assert "k" in cache and len(cache) == 1


def test_plan_cache_evicts_oldest():
    cache = PlanCache(max_entries=2)
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    cache.get_or_build("c", lambda: 3)
    assert "a" not in cache
    assert "b" in cache and "c" in cache


# ---------------------------------------------------------------------------
# Profiling hooks
# ---------------------------------------------------------------------------


def test_profiling_disabled_by_default_and_cheap():
    reset_profile()
    enable_profiling(False)

    @profiled
    def work():
        return 42

    assert work() == 42
    assert profile_summary() == {}


def test_profiling_records_spans_and_calls():
    reset_profile()
    enable_profiling(True)
    try:

        @profiled("unit.work")
        def work():
            return 7

        work()
        work()
        with span("unit.block"):
            with span("unit.inner"):
                pass
        summary = profile_summary()
        assert summary["unit.work"]["calls"] == 2
        assert summary["unit.block"]["calls"] == 1
        assert summary["unit.inner"]["calls"] == 1
        assert summary["unit.block"]["total_s"] >= summary["unit.inner"]["total_s"]
        assert summary["unit.work"]["total_s"] >= 0.0
        assert "mean_s" in summary["unit.work"]
    finally:
        enable_profiling(False)
        reset_profile()
    assert not profiling_enabled()


def test_task_timer_accumulates_in_table_order():
    timer = TaskTimer("unit", ("b", "a", "c"))
    assert timer.times == {"b": 0.0, "a": 0.0, "c": 0.0}
    with timer("a"):
        sum(range(1000))
    with timer("a"):
        pass
    with timer("c"):
        pass
    assert list(timer.times) == ["b", "a", "c"]
    assert timer.times["b"] == 0.0
    assert timer.times["a"] > 0.0


def test_task_timer_unknown_task_raises():
    timer = TaskTimer("unit", ("known",))
    with pytest.raises(KeyError, match="unknwon"):
        with timer("unknwon"):
            pass
    assert list(timer.times) == ["known"]


def test_task_timer_records_component_task_while_profiling():
    reset_profile()
    timer = TaskTimer("unit", ("load", "store"))
    with timer("load"):
        pass
    assert profile_summary() == {}  # disabled: the breakdown only
    enable_profiling(True)
    with timer("load"):
        pass
    with timer("load"):
        pass
    with timer("store"):
        pass
    summary = profile_summary()
    assert summary["unit.load"]["calls"] == 2
    assert summary["unit.store"]["calls"] == 1
    assert set(summary) == {"unit.load", "unit.store"}
