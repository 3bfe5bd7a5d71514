"""Tests for the experiment drivers, standalone characterizations, the
report renderers, and the component registry."""

import pytest

from repro.analysis import report
from repro.analysis.experiments import FIG3_TARGETS, run_matrix, vio_accuracy_ablation
from repro.analysis.standalone import (
    characterize_audio,
    characterize_eye_tracking,
    characterize_hologram,
    characterize_reconstruction,
    characterize_reprojection,
    characterize_vio,
    frame_time_growth,
)
from repro.core.config import SystemConfig
from repro.core.registry import COMPONENT_REGISTRY, default_components, registry_by_pipeline
from repro.core.runtime import build_runtime
from repro.hardware.platform import DESKTOP
from repro.perception.eye_tracking import EyeTracker
from repro.perception.vio.msckf import TASK_NAMES as MSCKF_TASKS
from repro.perf.profile import enable_profiling, profile_summary
from repro.sensors.dataset import make_vicon_room_dataset


@pytest.fixture
def task_calls():
    """Turn profiling on; return a reader of the calls per registry name.
    The characterizations assert their task structure as call counts: the
    host-time shares are the Table VI/VII benches' claims."""
    enable_profiling()
    return lambda: {name: stats["calls"] for name, stats in profile_summary().items()}


def _each(component, tasks, calls):
    return {f"{component}.{task}": calls for task in tasks}


def _msckf_calls(dataset, filters=1):
    """Calls of ``filters`` MSCKFs run over ``dataset``: each task once per
    frame, feature initialization twice (MSCKF and SLAM candidates), and
    "other" also once per IMU sample up to the last frame."""
    frames = len(dataset.camera_frames)
    imu_samples = len(dataset.imu_between(0.0, dataset.camera_frames[-1].timestamp))
    calls = {**dict.fromkeys(MSCKF_TASKS, frames),
             "feature_initialization": 2 * frames, "other": frames + imu_samples}
    return {f"msckf.{task}": filters * n for task, n in calls.items()}


@pytest.fixture(scope="module")
def quick_runs():
    return run_matrix(duration_s=2.0, fidelity="model", platforms=["desktop", "jetson-lp"],
                      apps=["sponza", "platformer"])


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


def test_run_matrix_covers_grid(quick_runs):
    cells = {(r.platform.key, r.app_name) for r in quick_runs}
    assert len(cells) == 4


def test_integrated_run_accessors(quick_runs):
    run = quick_runs[0]
    assert set(FIG3_TARGETS) <= set(run.frame_rates())
    assert abs(sum(run.cpu_share().values()) - 1.0) < 1e-9


def test_vio_ate_none_for_model_runs(quick_runs):
    assert quick_runs[0].vio_ate() is None


def test_run_integrated_full_collects_trajectory():
    """A full-fidelity integrated run's result pairs its VIO estimates with
    ground truth."""
    config = SystemConfig(duration_s=2.0, fidelity="full")
    ate = build_runtime(DESKTOP, "ar_demo", config).run().vio_ate()
    assert ate is not None
    assert ate.rmse_m < 0.2


@pytest.mark.slow
def test_vio_ablation_shape(task_calls):
    standard, high = vio_accuracy_ablation(duration_s=5.0)
    assert high.ate_cm < standard.ate_cm           # more features, less drift
    assert standard.frames == high.frames
    dataset = make_vicon_room_dataset(duration=5.0, seed=1, exposure_ms=0.25)  # the run's input
    assert task_calls() == _msckf_calls(dataset, filters=2)


# ---------------------------------------------------------------------------
# Standalone characterizations
# ---------------------------------------------------------------------------


def test_characterize_vio_tasks(task_calls):
    breakdown = characterize_vio(duration_s=3.0)
    shares = breakdown.shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert breakdown.extras["ate_cm"] < 20
    assert breakdown.mean_frame_ms > 0
    dataset = make_vicon_room_dataset(duration=3.0, seed=1)  # the run's input
    assert task_calls() == _msckf_calls(dataset)


def test_characterize_reconstruction_growth():
    breakdown = characterize_reconstruction(frames=8)
    assert breakdown.extras["pose_error_cm"] < 30
    assert breakdown.task_seconds["map_fusion"] > 0
    assert breakdown.task_seconds["surfel_prediction"] > 0


def test_characterize_reconstruction_rejects_warmup_only_runs():
    # The first three frames are warm-up: fewer than four leaves no pose
    # error to average.
    for frames in (0, 2, 3):
        with pytest.raises(ValueError, match="warm-up"):
            characterize_reconstruction(frames=frames)


def test_frame_time_growth_compares_disjoint_windows():
    # Eight frames: frames 0-3 against frames 4-7, none in both.
    assert frame_time_growth([1.0] * 4 + [3.0] * 4) == 3.0
    # Ten or more: the first five against the last five.
    assert frame_time_growth([1.0] * 5 + [9.0] * 20 + [2.0] * 5) == 2.0
    # An odd count leaves the middle frame out of both windows.
    assert frame_time_growth([2.0, 50.0, 8.0]) == 4.0
    with pytest.raises(ValueError):
        frame_time_growth([1.0])


def test_characterize_eye_tracking(task_calls):
    eval_samples = 6
    breakdown = characterize_eye_tracking(train_steps=25, eval_samples=eval_samples)
    assert breakdown.extras["mean_iou"] > 0.4
    # Training is untimed; one prediction per eye pair, then one per sample
    # for the IoU, each convolving and activating once per layer.
    predictions = eval_samples // 2 + eval_samples
    layers = len(EyeTracker().layers)
    assert task_calls() == {
        **_each("eye_tracking", ("batch_copy", "misc"), predictions),
        **_each("eye_tracking", ("convolution", "activation"), layers * predictions),
    }


def test_characterize_reprojection(task_calls):
    characterize_reprojection(frames=4)
    assert task_calls() == _each("timewarp", ("fbo", "opengl_state", "reprojection"), 4)


def test_characterize_hologram(task_calls):
    breakdown = characterize_hologram(iterations=3, resolution=64)
    assert 0 < breakdown.extras["efficiency"] <= 1
    # One solve, each of whose iterations runs every stage once.
    assert task_calls() == {"hologram.solve": 1, **_each("hologram", breakdown.task_seconds, 3)}


def test_characterize_audio(task_calls):
    blocks, sources = 12, 2  # one speech and one music clip
    breakdowns = characterize_audio(blocks=blocks)
    # Encoding runs each task once per source and block, playback once per block.
    assert task_calls() == {
        **_each("audio_encoding", breakdowns["audio_encoding"].task_seconds, sources * blocks),
        **_each("audio_playback", breakdowns["audio_playback"].task_seconds, blocks),
    }


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def test_static_tables_render():
    assert "Varjo" in report.render_table1()
    assert "vio" in report.render_table2().lower()
    assert "15 Hz" in report.render_table3()


def test_figure_renderers(quick_runs):
    fig3 = report.render_fig3(quick_runs)
    assert "desktop" in fig3 and "jetson-lp" in fig3
    fig4 = report.render_fig4(quick_runs[0])
    assert "vio" in fig4
    fig5 = report.render_fig5(quick_runs)
    assert "%" in fig5 or "cpu" in fig5.lower()
    fig6 = report.render_fig6(quick_runs)
    assert "GPU%" in fig6
    fig7 = report.render_fig7(quick_runs)
    assert "ms" in fig7
    fig8 = report.render_fig8()
    assert "audio_playback" in fig8


def test_table_renderers(quick_runs):
    table4 = report.render_table4(quick_runs)
    assert "sponza" in table4 and "desktop" in table4
    from repro.metrics.qoe import ImageQualityResult

    table5 = report.render_table5(
        {"desktop": ImageQualityResult(0.93, 0.02, 0.98, 0.01, 10)}
    )
    assert "0.93" in table5


def test_task_breakdown_renderer():
    breakdown = characterize_audio(blocks=4)["audio_encoding"]
    text = report.render_task_breakdown(breakdown)
    assert "encoding" in text and "%" in text


def test_ablation_renderer():
    from repro.analysis.experiments import VioAblationResult

    text = report.render_ablation(
        VioAblationResult("standard", 8.1, 10.0, 100),
        VioAblationResult("high", 4.9, 15.0, 100),
    )
    assert "1.50x" in text


# ---------------------------------------------------------------------------
# Registry (Table II)
# ---------------------------------------------------------------------------


def test_registry_covers_three_pipelines():
    grouped = registry_by_pipeline()
    assert set(grouped) == {"perception", "visual", "audio"}


def test_registry_default_components_unique():
    defaults = default_components()
    names = [e.component for e in defaults]
    assert len(names) == len(set(names))
    assert "vio" in names and "audio_playback" in names


def test_registry_modules_importable():
    import importlib

    for entry in COMPONENT_REGISTRY:
        module_name = entry.module
        # Strip a trailing class/function name if present.
        try:
            importlib.import_module(module_name)
        except ImportError:
            parent, _, attr = module_name.rpartition(".")
            module = importlib.import_module(parent)
            assert hasattr(module, attr)
