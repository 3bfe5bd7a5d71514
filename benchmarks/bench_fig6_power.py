"""Fig. 6: total power and per-rail breakdown.

Expected shape (§IV-A2): desktop total is ~3 orders of magnitude above the
ideal-AR budget (0.1-0.2 W) and GPU-dominant; Jetson-LP is ~2 orders above
ideal with SoC+Sys exceeding 50% of total -- the motivation for on-sensor
computing and system-level power work.
"""

from conftest import save_report

from repro.analysis.report import render_fig6


def test_fig6_power(grid_runs):
    text = render_fig6(grid_runs)
    save_report("fig6_power", text)

    ideal_ar_power = 0.15
    for run in grid_runs:
        total = run.power.total
        if run.platform.key == "desktop":
            assert total / ideal_ar_power > 500       # ~3 orders of magnitude
            assert run.power.share()["GPU"] > 0.5
        elif run.platform.key == "jetson-lp":
            assert 30 < total / ideal_ar_power < 120  # ~2 orders
            shares = run.power.share()
            assert shares["SoC"] + shares["Sys"] > 0.45
    # Power ordering: desktop >> HP > LP for every app.
    for app in ("sponza", "platformer"):
        by_platform = {
            r.platform.key: r.power.total
            for r in grid_runs
            if r.app_name == app
        }
        assert by_platform["desktop"] > by_platform["jetson-hp"] > by_platform["jetson-lp"]
