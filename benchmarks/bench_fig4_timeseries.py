"""Fig. 4: per-frame execution times for Platformer on the desktop.

Expected shape: VIO ~12 ms with visible input-dependent variability; the
application mid-single-digit ms; everything else <= ~2 ms; every component
shows nonzero variance (contention), VIO the most (§IV-A1).
"""

import numpy as np
from conftest import save_report

from repro.analysis.report import render_fig4


def test_fig4_timeseries(platformer_runs):
    desktop = next(r for r in platformer_runs if r.platform.key == "desktop")
    text = render_fig4(desktop)
    save_report("fig4_timeseries", text)

    logger = desktop.logger
    vio_times = np.asarray(logger.execution_times("vio"))
    app_times = np.asarray(logger.execution_times("application"))
    camera_times = np.asarray(logger.execution_times("camera"))
    # Magnitudes (desktop, Fig. 4): VIO ~12 ms, camera sub-ms.
    assert 0.008 < vio_times.mean() < 0.018
    assert app_times.mean() < 0.012
    assert camera_times.mean() < 0.002
    # Audio: encoding is cheaper than playback (paper Fig. 4 bottom).
    enc_times = np.asarray(logger.execution_times("audio_encoding"))
    play_times = np.asarray(logger.execution_times("audio_playback"))
    assert enc_times.mean() < play_times.mean()
    # Variability exists everywhere; VIO's CoV is the input-dependence.
    assert np.std(vio_times) / vio_times.mean() > 0.1
    for name in ("camera", "integrator", "timewarp", "audio_playback"):
        times = logger.execution_times(name)
        assert np.std(times) > 0
