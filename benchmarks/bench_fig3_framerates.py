"""Fig. 3: per-component frame rates, 4 apps x 3 platforms.

Expected shape (paper §IV-A1): the desktop meets essentially all targets
except the application on Sponza/Materials; Jetson-HP degrades the visual
pipeline on complex apps; Jetson-LP misses everything except audio.
"""

from conftest import save_report

from repro.analysis.experiments import FIG3_TARGETS
from repro.analysis.report import render_fig3


def test_fig3_framerates(grid_runs):
    text = render_fig3(grid_runs)
    save_report("fig3_framerates", text)

    by_cell = {(r.platform.key, r.app_name): r.frame_rates() for r in grid_runs}
    # Desktop meets perception/audio targets on every app.
    for app in ("sponza", "materials", "platformer", "ar_demo"):
        rates = by_cell[("desktop", app)]
        assert rates["vio"] > 0.93 * FIG3_TARGETS["vio"]
        assert rates["audio_encoding"] > 0.95 * FIG3_TARGETS["audio_encoding"]
        assert rates["timewarp"] > 0.9 * FIG3_TARGETS["timewarp"]
    # Desktop application misses the target on Sponza but not AR Demo.
    assert by_cell[("desktop", "sponza")]["application"] < 70
    assert by_cell[("desktop", "ar_demo")]["application"] > 110
    # Jetson-LP: only audio holds; the visual pipeline collapses.
    lp_sponza = by_cell[("jetson-lp", "sponza")]
    assert lp_sponza["audio_playback"] > 45
    assert lp_sponza["application"] < 25
    assert lp_sponza["timewarp"] < 90
    assert lp_sponza["vio"] < 14.5
