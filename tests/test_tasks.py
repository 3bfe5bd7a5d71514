"""Tests for the per-task descriptor tables and the §V-B shared-primitive
analysis."""

import pytest

from repro.analysis.tasks import (
    TASK_DESCRIPTORS,
    descriptor,
    descriptors_for,
    shared_primitives,
)


def test_every_measured_task_has_a_descriptor():
    """The descriptor table must cover every task name the timed
    implementations emit (Tables VI/VII stay renderable in full)."""
    from repro.audio.encoding import AudioEncoder  # noqa: F401 - import check
    from repro.perception.reconstruction.pipeline import TASK_NAMES as RECON_TASKS
    from repro.perception.vio.msckf import TASK_NAMES as VIO_TASKS
    from repro.visual.hologram import TASK_NAMES as HOLOGRAM_TASKS

    expectations = {
        "vio": set(VIO_TASKS),
        "scene_reconstruction": set(RECON_TASKS),
        "hologram": set(HOLOGRAM_TASKS),
        "audio_encoding": {"normalization", "encoding", "summation"},
        "audio_playback": {"psychoacoustic_filter", "rotation", "zoom", "binauralization"},
        "timewarp": {"fbo", "opengl_state", "reprojection"},
        "eye_tracking": {"convolution", "batch_copy", "activation", "misc"},
    }
    for component, tasks in expectations.items():
        described = {d.task for d in descriptors_for(component)}
        assert tasks <= described, (component, tasks - described)


def test_descriptor_lookup():
    entry = descriptor("vio", "msckf_update")
    assert "QR nullspace projection" in entry.computation
    with pytest.raises(KeyError):
        descriptor("vio", "warp_drive")


def test_no_duplicate_rows():
    keys = [(d.component, d.task) for d in TASK_DESCRIPTORS]
    assert len(keys) == len(set(keys))


def test_shared_primitives_match_paper_claims():
    """§V-B names Cholesky (VIO + scene reconstruction) explicitly; FFT
    and GEMM are the other obvious cross-component blocks."""
    shared = shared_primitives()
    assert set(shared["Cholesky solve"]) == {"vio", "scene_reconstruction"}
    assert {"audio_playback", "hologram"} <= set(shared["FFT"])
    assert {"vio", "eye_tracking"} <= set(shared["GEMM"])


def test_shared_primitives_threshold():
    all_primitives = shared_primitives(min_components=1)
    multi = shared_primitives(min_components=2)
    assert set(multi) < set(all_primitives)
    strict = shared_primitives(min_components=3)
    assert set(strict) <= set(multi)


def test_render_includes_descriptor_columns():
    from repro.analysis.report import render_task_breakdown
    from repro.analysis.standalone import TaskBreakdown

    breakdown = TaskBreakdown(
        component="audio_encoding",
        task_seconds={"normalization": 0.1, "encoding": 0.8, "summation": 0.1},
        frames=10,
        mean_frame_ms=1.0,
        extras={},
    )
    text = render_task_breakdown(breakdown)
    assert "Memory pattern" in text
    assert "column-major" in text


def test_render_shared_primitives_report():
    from repro.analysis.report import render_shared_primitives

    text = render_shared_primitives()
    assert "Cholesky" in text and "vio" in text


# Each timed component's task_breakdown() keys, in the order its Table
# VI/VII rows print.
TABLE_ORDERS = {
    "msckf": (
        "feature_detection",
        "feature_matching",
        "feature_initialization",
        "msckf_update",
        "slam_update",
        "marginalization",
        "other",
    ),
    "ekf_slam": (
        "feature_detection",
        "feature_matching",
        "landmark_initialization",
        "slam_update",
        "map_management",
        "other",
    ),
    "eye_tracking": ("convolution", "batch_copy", "activation", "misc"),
    "reconstruction": (
        "camera_processing",
        "image_processing",
        "pose_estimation",
        "surfel_prediction",
        "map_fusion",
    ),
    "audio_encoding": ("normalization", "encoding", "summation"),
    "audio_playback": ("psychoacoustic_filter", "rotation", "zoom", "binauralization"),
    "hologram": ("hologram_to_depth", "sum", "depth_to_hologram"),
    "timewarp": ("fbo", "opengl_state", "reprojection"),
}


def _vio_breakdown(filter_class, dataset):
    from itertools import islice

    from repro.perception.vio.msckf import MsckfConfig

    vio = dataset.start_vio(filter_class, MsckfConfig.standard())
    list(islice(dataset.replay(vio), 4))  # the first four frames
    return vio.task_breakdown()


def _reconstruction_breakdown():
    import numpy as np

    from repro.maths.se3 import Pose
    from repro.perception.reconstruction.pipeline import ReconstructionPipeline
    from repro.perception.reconstruction.tsdf import TsdfVolume
    from repro.sensors.depth import DepthCamera, DepthScene

    camera = DepthCamera(DepthScene.default(seed=3), width=40, height=30, seed=3)
    pipeline = ReconstructionPipeline(camera, volume=TsdfVolume(resolution=32))
    for i in range(2):
        pose = Pose(np.array([0.1 * i, 0.0, 1.6]))
        pipeline.process_frame(camera.render(pose), pose)
    return pipeline.task_breakdown()


def _breakdown(component, dataset):
    from repro.analysis import standalone

    if component == "msckf":
        from repro.perception.vio.msckf import Msckf

        return _vio_breakdown(Msckf, dataset)
    if component == "ekf_slam":
        from repro.perception.vio.ekf_slam import EkfSlamVio

        return _vio_breakdown(EkfSlamVio, dataset)
    if component == "reconstruction":
        return _reconstruction_breakdown()
    if component == "eye_tracking":
        return standalone.characterize_eye_tracking(train_steps=1, eval_samples=2).task_seconds
    if component.startswith("audio_"):
        return standalone.characterize_audio(blocks=1)[component].task_seconds
    if component == "hologram":
        return standalone.characterize_hologram(iterations=1, resolution=32).task_seconds
    return standalone.characterize_reprojection(frames=1).task_seconds


@pytest.mark.parametrize("component", sorted(TABLE_ORDERS))
def test_task_breakdowns_keep_table_order(component, small_dataset):
    """Every task row is present, in table order, and only those rows;
    every row the run exercised has accumulated host time."""
    breakdown = _breakdown(component, small_dataset)
    assert list(breakdown) == list(TABLE_ORDERS[component])
    assert all(seconds >= 0.0 for seconds in breakdown.values())
    assert sum(breakdown.values()) > 0.0
