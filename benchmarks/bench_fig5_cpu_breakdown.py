"""Fig. 5: contribution of each component to CPU time.

Expected shape (§IV-A1): VIO and the application are the largest
contributors (one or the other dominating by app); reprojection never
exceeds ~10-15%; the IMU integrator's relative share grows on the Jetsons
as app/timewarp work shrinks through dropped frames.
"""

from conftest import save_report

from repro.analysis.report import render_fig5


def test_fig5_cpu_breakdown(grid_runs):
    text = render_fig5(grid_runs)
    save_report("fig5_cpu_breakdown", text)

    for run in grid_runs:
        shares = run.cpu_share()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        top = max(shares, key=shares.get)
        assert top in ("vio", "application"), (run.platform.key, run.app_name, top)
        assert shares.get("timewarp", 0.0) < 0.16

    # Integrator share grows desktop -> Jetson-LP (same app).
    def integrator_share(platform):
        run = next(
            r for r in grid_runs if r.platform.key == platform and r.app_name == "sponza"
        )
        return run.cpu_share().get("integrator", 0.0)

    assert integrator_share("jetson-lp") > integrator_share("desktop")
