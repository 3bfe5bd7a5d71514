"""Unit tests for the visual pipeline: scenes, renderer, reprojection,
distortion, holography."""

import numpy as np
import pytest

from repro.maths.quaternion import quat_from_axis_angle, quat_multiply
from repro.maths.se3 import Pose
from repro.visual.distortion import (
    DEFAULT_K1,
    DEFAULT_K2,
    apply_lens_correction,
    mesh_approximation_error,
    mesh_warp_coordinates,
    radial_warp_coordinates,
)
from repro.visual.hologram import WeightedGerchbergSaxton, focal_stack_from_frame
from repro.visual.renderer import RenderCamera, Renderer
from repro.visual.reprojection import (
    bilinear_sample,
    reprojection_artifact_mask,
    rotational_reproject,
    translational_reproject,
)
from repro.visual.scenes import APPLICATION_ORDER, APPLICATIONS, scene_by_name


CAMERA = RenderCamera(width=96, height=54)
POSE = Pose(np.array([0.0, 0.0, 1.7]))


@pytest.fixture(scope="module")
def sponza_frame():
    return Renderer(scene_by_name("sponza"), CAMERA).render(POSE)


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------


def test_four_applications_registered():
    assert set(APPLICATION_ORDER) == set(APPLICATIONS)
    assert len(APPLICATIONS) == 4


def test_render_complexity_ordering():
    # Sponza > Materials > Platformer > AR Demo (§III-C).
    complexities = [APPLICATIONS[a].render_complexity for a in APPLICATION_ORDER]
    assert complexities == sorted(complexities, reverse=True)


def test_unknown_scene_raises():
    with pytest.raises(KeyError):
        scene_by_name("halflife3")


def test_ar_demo_is_see_through():
    assert not APPLICATIONS["ar_demo"].textured_room
    assert APPLICATIONS["sponza"].textured_room


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------


def test_render_shapes_and_range(sponza_frame):
    assert sponza_frame.image.shape == (54, 96, 3)
    assert sponza_frame.depth.shape == (54, 96)
    assert sponza_frame.image.min() >= 0.0 and sponza_frame.image.max() <= 1.0


def test_render_deterministic():
    a = Renderer(scene_by_name("sponza"), CAMERA).render(POSE)
    b = Renderer(scene_by_name("sponza"), CAMERA).render(POSE)
    assert np.array_equal(a.image, b.image)


def test_render_depends_on_pose(sponza_frame):
    moved = Renderer(scene_by_name("sponza"), CAMERA).render(
        Pose(np.array([0.5, 0.3, 1.7]))
    )
    assert not np.allclose(moved.image, sponza_frame.image)


def test_ar_demo_mostly_black():
    frame = Renderer(scene_by_name("ar_demo"), CAMERA).render(POSE)
    assert (frame.image.sum(axis=-1) == 0).mean() > 0.5


def test_depth_positive_for_room_hits(sponza_frame):
    assert (sponza_frame.depth > 0).mean() > 0.95
    assert sponza_frame.depth.max() < 20.0


def test_view_complexity_in_bounds():
    renderer = Renderer(scene_by_name("sponza"), CAMERA)
    for yaw in np.linspace(0, 2 * np.pi, 8):
        pose = Pose(np.zeros(3) + [0, 0, 1.7], quat_from_axis_angle(np.array([0, 0, 1.0]), yaw))
        assert 0.4 <= renderer.view_complexity(pose) <= 2.5


def test_camera_validation():
    with pytest.raises(ValueError):
        RenderCamera(width=4, height=4)
    with pytest.raises(ValueError):
        RenderCamera(fov_deg=5.0)


def test_intrinsic_matrix_structure():
    k = CAMERA.intrinsic_matrix()
    assert k[0, 0] == k[1, 1] == pytest.approx(CAMERA.focal_px)
    assert k[0, 2] == pytest.approx(CAMERA.width / 2)


# ---------------------------------------------------------------------------
# Bilinear sampling + reprojection
# ---------------------------------------------------------------------------


def test_bilinear_exact_at_integer_coords():
    rng = np.random.default_rng(0)
    image = rng.random((8, 10))
    u, v = np.meshgrid(np.arange(10, dtype=float), np.arange(8, dtype=float))
    coords = np.stack([u, v], axis=-1)
    assert np.allclose(bilinear_sample(image, coords), image)


def test_bilinear_interpolates_midpoints():
    image = np.array([[0.0, 1.0]])
    value = bilinear_sample(image, np.array([[0.5, 0.0]]))
    assert value[0] == pytest.approx(0.5)


def test_bilinear_out_of_bounds_black():
    image = np.ones((4, 4))
    coords = np.array([[-1.0, 0.0], [5.0, 0.0], [0.0, -2.0]])
    assert np.allclose(bilinear_sample(image, coords), 0.0)


def test_rotational_identity_warp_is_exact(sponza_frame):
    k = CAMERA.intrinsic_matrix()
    warped = rotational_reproject(sponza_frame.image, k, POSE, POSE)
    assert np.allclose(warped, sponza_frame.image)


def test_rotational_warp_matches_rerender_for_pure_rotation(sponza_frame):
    """The defining property of TimeWarp: for a pure rotation the warped
    image equals a fresh render from the new pose (away from borders)."""
    k = CAMERA.intrinsic_matrix()
    turned = Pose(POSE.position, quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.06))
    warped = rotational_reproject(sponza_frame.image, k, POSE, turned)
    rerendered = Renderer(scene_by_name("sponza"), CAMERA).render(turned).image
    interior = (slice(8, -8), slice(12, -12))
    error = np.abs(warped[interior] - rerendered[interior]).mean()
    assert error < 0.03


def test_translational_beats_rotational_under_translation(sponza_frame):
    k = CAMERA.intrinsic_matrix()
    moved = Pose(POSE.position + np.array([0.0, 0.25, 0.0]), POSE.orientation)
    rerendered = Renderer(scene_by_name("sponza"), CAMERA).render(moved).image
    rot = rotational_reproject(sponza_frame.image, k, POSE, moved)
    trans = translational_reproject(sponza_frame.image, sponza_frame.depth, k, POSE, moved)
    interior = (slice(8, -8), slice(12, -12))
    err_rot = np.abs(rot[interior] - rerendered[interior]).mean()
    err_trans = np.abs(trans[interior] - rerendered[interior]).mean()
    assert err_trans < err_rot


def test_translational_validation(sponza_frame):
    k = CAMERA.intrinsic_matrix()
    with pytest.raises(ValueError):
        translational_reproject(sponza_frame.image, sponza_frame.depth[:10], k, POSE, POSE)
    with pytest.raises(ValueError):
        translational_reproject(
            sponza_frame.image, sponza_frame.depth, k, POSE, POSE, iterations=0
        )


def test_artifact_mask_grows_with_rotation():
    k = CAMERA.intrinsic_matrix()
    small = reprojection_artifact_mask(
        k, (54, 96), POSE,
        Pose(POSE.position, quat_from_axis_angle(np.array([0, 0, 1.0]), 0.02)),
    )
    large = reprojection_artifact_mask(
        k, (54, 96), POSE,
        Pose(POSE.position, quat_from_axis_angle(np.array([0, 0, 1.0]), 0.2)),
    )
    assert large.mean() > small.mean()
    assert small.dtype == bool


# ---------------------------------------------------------------------------
# Distortion / chromatic aberration
# ---------------------------------------------------------------------------


def test_zero_coefficients_are_identity_warp():
    coords = radial_warp_coordinates(32, 24, 0.0, 0.0)
    u, v = np.meshgrid(np.arange(32, dtype=float), np.arange(24, dtype=float))
    assert np.allclose(coords[..., 0], u)
    assert np.allclose(coords[..., 1], v)


def test_image_center_is_fixed_point():
    coords = radial_warp_coordinates(33, 25, DEFAULT_K1, DEFAULT_K2)
    # Pixel nearest the center barely moves.
    assert np.allclose(coords[12, 16], [16, 12], atol=0.05)


def test_barrel_pulls_corners_inward():
    coords = radial_warp_coordinates(32, 24, -0.2, 0.0)
    # Source coordinate of the display corner lies inside the image corner
    # (toward the center) for a barrel pre-correction... the warp factor
    # < 1 maps display corners to interior source pixels.
    corner_source = coords[0, 0]
    assert corner_source[0] > 0 and corner_source[1] > 0


def test_mesh_matches_exact_to_subpixel():
    mean, maximum = mesh_approximation_error(96, 54, mesh_step=8)
    assert mean < 0.3
    assert maximum < 1.0


def test_finer_mesh_is_more_accurate():
    coarse_mean, _ = mesh_approximation_error(96, 54, mesh_step=24)
    fine_mean, _ = mesh_approximation_error(96, 54, mesh_step=6)
    assert fine_mean < coarse_mean


def test_mesh_step_validation():
    with pytest.raises(ValueError):
        mesh_warp_coordinates(32, 24, -0.1, 0.0, mesh_step=1)


def test_lens_correction_shifts_channels_differently(sponza_frame):
    corrected = apply_lens_correction(sponza_frame.image)
    assert corrected.shape == sponza_frame.image.shape
    red_shift = np.abs(corrected[..., 0] - sponza_frame.image[..., 0]).mean()
    assert red_shift > 0  # channels moved


def test_lens_correction_validation(sponza_frame):
    with pytest.raises(ValueError):
        apply_lens_correction(sponza_frame.image[..., 0])
    with pytest.raises(ValueError):
        apply_lens_correction(sponza_frame.image, chromatic_scales=(1.0, 1.0))


# ---------------------------------------------------------------------------
# Hologram (Weighted Gerchberg-Saxton)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hologram_solver():
    return WeightedGerchbergSaxton(resolution=64, depths_m=(0.05, 0.12))


def _targets(solver, seed=0):
    rng = np.random.default_rng(seed)
    targets = []
    for _ in solver.depths_m:
        t = np.zeros((solver.resolution, solver.resolution))
        t[16:48, 16:48] = rng.random((32, 32)) > 0.6
        targets.append(t.astype(float))
    return targets


def test_wgs_converges_toward_targets(hologram_solver):
    targets = _targets(hologram_solver)
    few = hologram_solver.solve(targets, iterations=1, seed=0)
    many = hologram_solver.solve(targets, iterations=10, seed=0)
    assert many.efficiency > few.efficiency
    assert 0.0 < many.efficiency <= 1.0
    assert 0.0 <= many.uniformity <= 1.0


def test_wgs_uniformity_non_decreasing():
    """The point of the *weighted* GS variant: per-plane weighting drives
    inter-plane uniformity up across iterations.  Solved repeatedly with
    the same seed, the trajectory must never dip more than numerical
    jitter near convergence, and must improve overall."""
    solver = WeightedGerchbergSaxton(resolution=64, depths_m=(0.05, 0.12))
    targets = [np.zeros((64, 64)), np.zeros((64, 64))]
    targets[0][12:28, 12:28] = 1.0   # near-plane square
    targets[1][36:52, 36:52] = 1.0   # far-plane square, disjoint
    uniformities = [
        solver.solve(targets, iterations=k, seed=0).uniformity
        for k in range(1, 9)
    ]
    for earlier, later in zip(uniformities, uniformities[1:]):
        assert later >= earlier - 5e-3
    assert uniformities[-1] > uniformities[0]


def test_wgs_phase_output_range(hologram_solver):
    result = hologram_solver.solve(_targets(hologram_solver), iterations=2)
    assert result.phase.shape == (64, 64)
    assert result.phase.min() >= -np.pi and result.phase.max() <= np.pi


def test_wgs_task_times_cover_table_vii(hologram_solver):
    result = hologram_solver.solve(_targets(hologram_solver), iterations=2)
    assert set(result.task_times) == {"hologram_to_depth", "sum", "depth_to_hologram"}


def test_propagation_is_unitary(hologram_solver):
    rng = np.random.default_rng(3)
    field = np.exp(1j * rng.uniform(-np.pi, np.pi, (64, 64)))
    planes = hologram_solver.propagate_all(field)
    assert planes.shape == (len(hologram_solver.depths_m), 64, 64)
    # Angular-spectrum propagation conserves energy (no evanescent loss
    # for a propagating field at this sampling).
    energy_in = (np.abs(field) ** 2).sum()
    for propagated in planes:
        energy_out = (np.abs(propagated) ** 2).sum()
        assert energy_out <= energy_in + 1e-6
        assert energy_out > 0.5 * energy_in


def test_propagation_roundtrip(hologram_solver):
    rng = np.random.default_rng(4)
    field = np.exp(1j * rng.uniform(-np.pi, np.pi, (64, 64)))
    planes = hologram_solver.propagate_all(field, forward=True)
    for k, plane in enumerate(planes):
        # Plane k travels back over its own depth: entry k of the batch.
        roundtrip = hologram_solver.propagate_all(plane, forward=False)[k]
        # Forward then backward is identity on the propagating subspace.
        assert np.abs(roundtrip - field).mean() < 0.2


def test_wgs_validation():
    with pytest.raises(ValueError):
        WeightedGerchbergSaxton(resolution=100)  # not a power of two
    with pytest.raises(ValueError):
        WeightedGerchbergSaxton(resolution=64, depths_m=())
    solver = WeightedGerchbergSaxton(resolution=64, depths_m=(0.05,))
    with pytest.raises(ValueError):
        solver.solve([np.zeros((32, 32))])  # wrong target shape
    with pytest.raises(ValueError):
        solver.solve([np.zeros((64, 64)), np.zeros((64, 64))])  # wrong count
    with pytest.raises(ValueError):
        solver.solve([np.ones((64, 64))], iterations=-3)
    for depth in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            WeightedGerchbergSaxton(resolution=64, depths_m=(depth,))
    for bad in (0.0, -5e-7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="wavelength_m"):
            WeightedGerchbergSaxton(resolution=64, wavelength_m=bad)
        with pytest.raises(ValueError, match="pixel_pitch_m"):
            WeightedGerchbergSaxton(resolution=64, pixel_pitch_m=bad)
    for bad in (float("nan"), float("inf")):
        target = np.ones((64, 64))
        target[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            solver.solve([target])


def test_focal_stack_partitions_luminance(sponza_frame):
    depths = (0.05, 0.1, 0.2)
    stack = focal_stack_from_frame(sponza_frame.image, sponza_frame.depth, depths, 64)
    assert len(stack) == 3
    for target in stack:
        assert target.shape == (64, 64)
        assert target.min() >= 0.0
    # Every bright pixel lands in exactly one plane.
    coverage = sum((t > 0).astype(int) for t in stack)
    assert coverage.max() <= 1
