"""Tests for the hot-path acceleration layer (``repro.perf``).

Two kinds of guarantees:

- **Parity**: the kernels must reproduce the formulations kept in
  ``tests/kernel_oracles.py`` -- bit-exact for TSDF culling, which only
  skips voxels that cannot project into the image, for the culled renderer
  and the compacted raycast, which only skip rays that cannot hit, and for
  the vectorized cull-block setup and im2col; to atol 1e-8 for WGS, where FFT
  batching reassociates floating-point sums.
- **Utilities**: the plan cache, the task timer and the kernels' profiling
  spans behave as documented.
"""

import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from repro.maths.quaternion import matrix_to_quat, quat_from_axis_angle, quat_multiply
from repro.maths.se3 import Pose
from repro.metrics.flip import flip
from repro.metrics.ssim import ssim
from repro.perception.eye_tracking import _im2col
from repro.perception.reconstruction.raycast import raycast
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.perf import PlanCache, TaskTimer, enable_profiling, profile, profile_summary, span
from repro.perf.cache import MAX_ENTRIES
from repro.sensors.depth import DepthCamera, DepthScene
from repro.sensors.trajectory import lab_walk_trajectory
from repro.visual.hologram import WeightedGerchbergSaxton
from repro.visual.renderer import R_CAM_BODY, RenderCamera, Renderer
from repro.visual.scenes import APPLICATIONS, scene_by_name
from tests.kernel_oracles import (
    ReferenceWgs,
    build_blocks_reference,
    gradient_reference,
    im2col_reference,
    integrate_full_grid,
    raycast_reference,
    render_reference,
    sample_reference,
)


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


@pytest.mark.parametrize("resolution", [13, 20, 96])
def test_tsdf_blocks_match_oracle(resolution):
    """Partial edge blocks (13, 20) and the default grid (96)."""
    volume = TsdfVolume(resolution=resolution)
    built = (volume._block_perm, volume._block_centers, volume._block_radii, volume._block_sizes)
    for array, reference in zip(built, build_blocks_reference(volume)):
        assert array.dtype == reference.dtype
        assert np.array_equal(array, reference)


# ---------------------------------------------------------------------------
# Ray kernels: the culled renderer and the compacted raycast vs. the oracles
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _renderer(scene: str, width: int, height: int) -> Renderer:
    return Renderer(scene_by_name(scene), RenderCamera(width, height))


def _frame(axis, helper):
    """Right-handed orthonormal frame whose first column is along ``axis``."""
    x = axis / np.linalg.norm(axis)
    y = np.cross(helper, x)
    y /= np.linalg.norm(y)
    return np.column_stack([x, y, np.cross(x, y)])


def _aimed_pose(renderer, position, target, pixel, helper):
    """A pose at ``position`` whose ray through flat pixel index ``pixel``
    points at ``target``; ``helper`` fixes the roll."""
    ray_body = renderer._rays_cam[pixel] @ R_CAM_BODY
    rotation = _frame(target - position, helper) @ _frame(ray_body, helper).T
    return Pose(position, matrix_to_quat(rotation))


def _apart(u, v):
    """Whether ``u`` and ``v`` are at least ~6 degrees from parallel."""
    return np.linalg.norm(np.cross(u, v)) > 0.1 * np.linalg.norm(u) * np.linalg.norm(v)


@st.composite
def _render_cases(draw):
    """A renderer over any scene at either test resolution, and a pose
    anywhere in the room, inside a box's bounding sphere, or aiming one
    pixel's ray past a box corner, tangent to the box's bounding sphere."""
    scene = scene_by_name(draw(st.sampled_from(sorted(APPLICATIONS))))
    renderer = _renderer(scene.name, *draw(st.sampled_from([(320, 180), (192, 108)])))
    kinds = ["room"] + (["inside_sphere", "corner"] if scene.boxes else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "room":
        h = scene.room_half_extent - 0.05
        position = np.array(
            [draw(st.floats(-h, h)), draw(st.floats(-h, h)), draw(st.floats(0.05, scene.room_height - 0.05))]
        )
        orientation = quat_from_axis_angle(draw(_DIRECTIONS), draw(st.floats(-np.pi, np.pi)))
        return renderer, Pose(position, orientation)
    box = draw(st.sampled_from(scene.boxes))
    center = 0.5 * (box.minimum + box.maximum)
    if kind == "inside_sphere":
        radius = 0.5 * float(np.linalg.norm(box.maximum - box.minimum))
        position = center + draw(_DIRECTIONS) * radius * draw(st.floats(0.0, 0.999))
        orientation = quat_from_axis_angle(draw(_DIRECTIONS), draw(st.floats(-np.pi, np.pi)))
        return renderer, Pose(position, orientation)
    corner = np.where([draw(st.booleans()) for _ in range(3)], box.maximum, box.minimum)
    radial = (corner - center) / np.linalg.norm(corner - center)
    w = draw(_DIRECTIONS.filter(lambda v: _apart(v, radial)))
    tangent = w - (w @ radial) * radial
    tangent /= np.linalg.norm(tangent)
    position = corner - draw(st.floats(0.3, 3.0)) * tangent
    pixel = draw(st.integers(0, renderer._rays_cam.shape[0] - 1))
    ray_body = renderer._rays_cam[pixel] @ R_CAM_BODY
    helper = draw(_DIRECTIONS.filter(lambda v: _apart(v, tangent) and _apart(v, ray_body)))
    return renderer, _aimed_pose(renderer, position, corner, pixel, helper)


@settings(max_examples=40, deadline=None)
@given(case=_render_cases())
def test_render_matches_oracle_on_drawn_poses(case):
    renderer, pose = case
    with np.errstate(all="ignore"):
        frame = renderer.render(pose)
        reference = render_reference(renderer, pose)
    assert np.array_equal(frame.image, reference.image)
    assert np.array_equal(frame.depth, reference.depth)


def test_render_pretest_keeps_corner_grazing_rays():
    """The center pixel's ray aimed at each top corner of each Sponza
    column, tangent to the column's bounding sphere: its render is the
    oracle's."""
    renderer = _renderer("sponza", 192, 108)
    pixel = 108 // 2 * 192 + 192 // 2
    up = np.array([0.0, 0.0, 1.0])
    for box in renderer.scene.boxes:
        center = 0.5 * (box.minimum + box.maximum)
        for x, y in itertools.product(*zip(box.minimum[:2], box.maximum[:2])):
            corner = np.array([x, y, box.maximum[2]])
            tangent = np.cross(corner - center, up)
            tangent /= np.linalg.norm(tangent)
            pose = _aimed_pose(renderer, corner - 0.5 * tangent, corner, pixel, up)
            frame = renderer.render(pose)
            reference = render_reference(renderer, pose)
            assert np.array_equal(frame.image, reference.image)
            assert np.array_equal(frame.depth, reference.depth)


def test_render_outside_the_room_warns_nothing():
    """A Sponza pose outside the room, turned so that about a sixth of its
    rays enter it: the rays that miss shade no warning, and the render is
    the oracle's."""
    renderer = _renderer("sponza", 192, 108)
    pose = Pose(np.array([4.2, 0.0, 1.6]), quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = renderer.render(pose)
    with np.errstate(all="ignore"):
        reference = render_reference(renderer, pose)
    assert 0.0 < np.mean(frame.depth > 0) < 1.0
    assert np.array_equal(frame.image, reference.image)
    assert np.array_equal(frame.depth, reference.depth)


@functools.lru_cache(maxsize=4)
def _fused_volume(resolution, width, height, frames, extent=8.0, origin=(-4.0, -4.0, -1.0)):
    """A volume fused from ``frames`` lab-walk depth frames, with the
    camera and poses; treat it as read-only."""
    camera = DepthCamera(DepthScene.default(seed=3), width=width, height=height, seed=3)
    trajectory = lab_walk_trajectory(duration=frames * 0.3 + 2.0, seed=3)
    volume = TsdfVolume(resolution=resolution, extent_m=extent, origin=np.array(origin))
    poses = []
    for i in range(frames):
        sample = trajectory.sample(i * 0.3)
        pose = Pose(sample.position, sample.orientation, timestamp=i * 0.3)
        volume.integrate(camera.render(pose), pose, camera)
        poses.append(pose)
    return volume, camera, poses


def _assert_raycast_matches_oracle(volume, pose, camera, **kwargs):
    result = raycast(volume, pose, camera, **kwargs)
    reference = raycast_reference(volume, pose, camera, **kwargs)
    for name in ("depth", "vertices", "normals", "valid"):
        assert np.array_equal(getattr(result, name), getattr(reference, name)), name
    return result


def test_raycast_matches_oracle_on_fused_poses():
    """The reconstruction benchmark's configuration: 80x60 depth, 96^3."""
    volume, camera, poses = _fused_volume(96, 80, 60, 8)
    for pose in poses:
        assert _assert_raycast_matches_oracle(volume, pose, camera).valid.mean() > 0.5


@st.composite
def _raycast_cases(draw):
    """A volume whose faces cut the room's walls at drawn offsets, and a
    pose near a fused one or anywhere in or around the volume (looking in
    or away), with drawn march parameters."""
    # The walls stand at x, y = +-3.5 m and z = 0 and 2.8 m.
    extent = draw(st.floats(6.6, 7.6))
    origin = (
        -extent / 2 + draw(st.floats(-0.2, 0.2)),
        -extent / 2 + draw(st.floats(-0.2, 0.2)),
        draw(st.floats(-0.4, 0.1)),
    )
    volume, camera, poses = _fused_volume(draw(st.sampled_from([24, 40])), 40, 30, 3, extent, origin)
    if draw(st.booleans()):
        base = draw(st.sampled_from(poses))
        position = base.position + np.array([draw(st.floats(-0.3, 0.3)) for _ in range(3)])
        turn = quat_from_axis_angle(draw(_DIRECTIONS), draw(st.floats(-0.5, 0.5)))
        pose = Pose(position, quat_multiply(base.orientation, turn))
    else:
        pose = draw(_free_poses())
    kwargs = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "step_fraction": st.floats(0.3, 1.0),
                "max_distance": st.floats(1.0, 20.0),
                "start_distance": st.floats(0.0, 2.0),
            },
        )
    )
    return volume, camera, pose, kwargs


@settings(max_examples=40, deadline=None)
@given(case=_raycast_cases())
def test_raycast_matches_oracle_on_drawn_poses(case):
    volume, camera, pose, kwargs = case
    _assert_raycast_matches_oracle(volume, pose, camera, **kwargs)


_COORDINATES = st.one_of(
    st.floats(-6.0, 9.0),
    # Voxel centers and cell faces of the 40^3 grid, up to rounding.
    st.integers(-2, 82).map(lambda k: -4.0 + k * 0.1),
)


@st.composite
def _sample_points(draw):
    """Points anywhere in or around the 40^3 grid, or within a voxel of an
    observed voxel's center."""
    volume, _, _ = _fused_volume(40, 40, 30, 3)
    observed = np.flatnonzero(volume.weight.reshape(-1) > 0)
    anywhere = st.tuples(_COORDINATES, _COORDINATES, _COORDINATES).map(np.array)
    offset = st.floats(-volume.voxel_size, volume.voxel_size)
    near = st.tuples(st.sampled_from(observed), offset, offset, offset).map(
        lambda c: volume._centers[c[0]] + np.array(c[1:])
    )
    return np.array(draw(st.lists(st.one_of(anywhere, near), min_size=1, max_size=64)))


@settings(max_examples=30, deadline=None)
@given(points=_sample_points())
def test_tsdf_sample_and_gradient_match_oracle(points):
    volume, _, _ = _fused_volume(40, 40, 30, 3)
    values, valid = volume.sample(points)
    ref_values, ref_valid = sample_reference(volume, points)
    assert np.array_equal(valid, ref_valid)
    assert values.tobytes() == ref_values.tobytes()
    assert np.array_equal(volume.gradient(points), gradient_reference(volume, points))


@pytest.mark.parametrize("channels", [1, 8])
@pytest.mark.parametrize("kernel", [1, 3])
def test_im2col_matches_oracle(channels, kernel):
    x = np.random.default_rng(channels * 10 + kernel).normal(size=(2, channels, 12, 16))
    cols = _im2col(x, kernel)
    reference = im2col_reference(x, kernel)
    assert cols.dtype == reference.dtype and cols.flags.c_contiguous
    assert np.array_equal(cols, reference)


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
    cache = PlanCache()
    for key in range(MAX_ENTRIES + 1):
        cache.get_or_build(key, lambda: key)
    assert 0 not in cache
    assert 1 in cache and MAX_ENTRIES in cache
    assert len(cache) == MAX_ENTRIES


# ---------------------------------------------------------------------------
# Profiling: the kernels' spans and the task timer
# ---------------------------------------------------------------------------

KERNEL_SPANS = ("hologram.solve", "tsdf.integrate", "metrics.ssim", "metrics.flip")


def _run_kernels():
    """Call each span-timed kernel once, at a small size."""
    solver = WeightedGerchbergSaxton(resolution=16, depths_m=(0.05, 0.12))
    solver.solve(_focal_targets(16, 2, seed=0), iterations=1)
    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, noise_std=0.0)
    pose = _tsdf_poses()[0]
    TsdfVolume(resolution=16).integrate(camera.render(pose, noisy=False), pose, camera)
    image = np.random.default_rng(0).random((24, 32, 3))
    ssim(image, 0.9 * image)
    flip(image, 0.9 * image)


def test_profiling_disabled_by_default_and_cheap(monkeypatch):
    """Disabled, the kernels' spans never reach the registry."""
    assert not profile._enabled

    def record(name, elapsed):
        raise AssertionError(f"{name} recorded while profiling is disabled")

    monkeypatch.setattr(profile, "_record", record)
    _run_kernels()
    assert profile_summary() == {}


def test_profiling_records_spans_and_calls():
    enable_profiling(True)
    _run_kernels()
    _run_kernels()
    with span("unit.block"):
        with span("unit.inner"):
            pass
    summary = profile_summary(reset=True)
    kernel_calls = {name: summary[name]["calls"] for name in KERNEL_SPANS}
    assert kernel_calls == dict.fromkeys(KERNEL_SPANS, 2)
    assert summary["unit.block"]["calls"] == 1
    assert summary["unit.inner"]["calls"] == 1
    assert summary["unit.block"]["total_s"] >= summary["unit.inner"]["total_s"]
    assert "mean_s" in summary["metrics.ssim"]
    assert profile_summary() == {}


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
