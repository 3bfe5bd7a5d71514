"""Tests for the experiment drivers, standalone characterizations, the
report renderers, and the component registry."""

import pytest

from repro.analysis import report
from repro.analysis.experiments import (
    FIG3_TARGETS,
    run_integrated,
    run_matrix,
    vio_accuracy_ablation,
)
from repro.analysis.standalone import (
    characterize_audio,
    characterize_eye_tracking,
    characterize_hologram,
    characterize_reconstruction,
    characterize_reprojection,
    characterize_vio,
    frame_time_growth,
)
from repro.core.registry import COMPONENT_REGISTRY, default_components, registry_by_pipeline


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
    assert set(FIG3_TARGETS) <= set(run.frame_rates()) | set(FIG3_TARGETS)
    assert abs(sum(run.cpu_share().values()) - 1.0) < 1e-9
    assert run.wall_seconds > 0


def test_vio_ate_none_for_model_runs(quick_runs):
    assert quick_runs[0].vio_ate() is None


def test_run_integrated_full_collects_trajectory():
    run = run_integrated("desktop", "ar_demo", duration_s=2.0, fidelity="full")
    ate = run.vio_ate()
    assert ate is not None
    assert ate.rmse_m < 0.2


@pytest.mark.slow
def test_vio_ablation_shape():
    standard, high = vio_accuracy_ablation(duration_s=5.0)
    assert high.ate_cm < standard.ate_cm           # more features, less drift
    ratio = high.mean_frame_time_ms / standard.mean_frame_time_ms
    assert 1.1 < ratio < 2.6                        # ~1.5x in the paper
    assert standard.frames == high.frames


# ---------------------------------------------------------------------------
# Standalone characterizations
# ---------------------------------------------------------------------------


def test_characterize_vio_tasks():
    breakdown = characterize_vio(duration_s=3.0)
    shares = breakdown.shares()
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert breakdown.extras["ate_cm"] < 20
    assert breakdown.extras["frame_time_cov"] > 0.05  # input-dependent (§IV-B1)
    assert breakdown.mean_frame_ms > 0


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


def test_characterize_eye_tracking():
    breakdown = characterize_eye_tracking(train_steps=25, eval_samples=6)
    assert breakdown.extras["mean_iou"] > 0.4
    shares = breakdown.shares()
    assert shares["convolution"] > 0.3  # convolutions dominate (paper: 74%)


def test_characterize_reprojection():
    breakdown = characterize_reprojection(frames=4)
    assert set(breakdown.task_seconds) == {"fbo", "opengl_state", "reprojection"}
    assert breakdown.shares()["reprojection"] > 0.1


def test_characterize_hologram():
    breakdown = characterize_hologram(iterations=3, resolution=64)
    shares = breakdown.shares()
    # Propagations dominate; the scalar 'sum' stage is negligible
    # (Table VII: < 0.1%).
    assert shares["sum"] < 0.1
    assert shares["hologram_to_depth"] + shares["depth_to_hologram"] > 0.85
    assert 0 < breakdown.extras["efficiency"] <= 1


def test_characterize_audio():
    breakdowns = characterize_audio(blocks=12)
    encoding = breakdowns["audio_encoding"].shares()
    playback = breakdowns["audio_playback"].shares()
    assert encoding["encoding"] > 0.4          # paper: 81%
    assert playback["binauralization"] + playback["rotation"] > 0.5
    assert playback["zoom"] < 0.2


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
