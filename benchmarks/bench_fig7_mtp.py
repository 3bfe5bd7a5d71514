"""Fig. 7: per-frame motion-to-photon latency for Platformer.

Expected shape: three well-separated bands -- desktop ~3 ms, Jetson-HP
high-single-digit ms, Jetson-LP mid-teens ms with visibly higher variance.
"""

import numpy as np
from conftest import save_report

from repro.analysis.report import render_fig7


def test_fig7_mtp_timeline(platformer_runs):
    text = render_fig7(platformer_runs)
    save_report("fig7_mtp_platformer", text)

    series = {
        r.platform.key: np.array([s.total_ms for s in r.mtp_samples])
        for r in platformer_runs
    }
    assert series["desktop"].mean() < 5.0
    assert series["desktop"].mean() < series["jetson-hp"].mean() < series["jetson-lp"].mean()
    # Variability grows with constraint (the Fig. 7 spread).
    assert series["jetson-lp"].std() > series["desktop"].std()
    # Desktop never leaves the VR budget; Jetson-LP frequently does worse
    # than the desktop's worst frame.
    assert series["desktop"].max() < 20.0
    assert np.percentile(series["jetson-lp"], 75) > series["desktop"].max()
