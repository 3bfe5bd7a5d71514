"""Table VII: task breakdowns of reprojection, hologram, and audio.

Expected shapes (paper): reprojection's time is dominated by state/driver
work rather than the warp math itself; hologram splits between the
hologram->depth and depth->hologram propagations with the 'sum' stage
negligible; audio encoding is dominated by the soundfield mapping (81%);
audio playback by the two FFT-convolution stages (psychoacoustic filter +
binauralization = 89%).
"""

from conftest import save_report

from repro.analysis.report import render_task_breakdown
from repro.analysis.standalone import (
    characterize_audio,
    characterize_eye_tracking,
    characterize_hologram,
    characterize_reprojection,
)


def test_table7_reprojection_tasks():
    breakdown = characterize_reprojection(frames=16)
    save_report("table7_reprojection_tasks", render_task_breakdown(breakdown))

    shares = breakdown.shares()
    # Setup/state work (fbo + per-eye warp state) is a major cost beside
    # the resampling itself.
    assert shares["fbo"] + shares["opengl_state"] > 0.15
    assert shares["reprojection"] > 0.2


def test_table7_hologram_tasks():
    breakdown = characterize_hologram(iterations=6, resolution=128)
    save_report("table7_hologram_tasks", render_task_breakdown(breakdown))

    shares = breakdown.shares()
    assert shares["sum"] < 0.05  # paper: < 0.1%
    assert 0.10 < shares["hologram_to_depth"] < 0.75
    assert 0.25 < shares["depth_to_hologram"] < 0.9
    assert breakdown.extras["efficiency"] > 0.05


def test_table7_audio_tasks():
    breakdowns = characterize_audio(blocks=96)
    save_report(
        "table7_audio_tasks",
        render_task_breakdown(breakdowns["audio_encoding"])
        + "\n\n"
        + render_task_breakdown(breakdowns["audio_playback"]),
    )

    encoding = breakdowns["audio_encoding"].shares()
    playback = breakdowns["audio_playback"].shares()
    # Encoding: the soundfield mapping dominates (paper: 81%).  Use a
    # noise-robust bound: perf_counter shares jitter under system load.
    assert encoding["encoding"] > 0.45
    assert encoding["encoding"] > encoding["normalization"]
    # Playback: FFT-convolution stages dominate (paper: filter 29% +
    # binauralization 60%); rotation/zoom are the small remainder in the
    # paper -- our exact SH rotation is relatively dearer, so assert the
    # convolution pair holds over 45% and zoom is negligible.
    assert playback["binauralization"] + playback["psychoacoustic_filter"] > 0.45
    assert playback["zoom"] < 0.1
    # Binauralization and the SH rotation together take most of playback.
    assert playback["binauralization"] + playback["rotation"] > 0.5
    # (The paper's encoding-cheaper-than-playback ordering is a property
    # of the calibrated timing model, asserted in the Fig. 4 bench; the
    # two Python kernels here are too close in wall time to compare
    # reliably.)


def test_table7_eye_tracking_profile():
    """Eye tracking (§IV-B2 prose): convolutions dominate, copies next."""
    breakdown = characterize_eye_tracking(train_steps=60, eval_samples=16)
    save_report("table7_eye_tracking_tasks", render_task_breakdown(breakdown))

    shares = breakdown.shares()
    assert shares["convolution"] == max(shares.values())
    assert shares["convolution"] > 0.3  # paper: 74%
    assert breakdown.extras["mean_iou"] > 0.55
