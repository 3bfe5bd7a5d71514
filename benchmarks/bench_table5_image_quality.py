"""Table V: offline image quality (SSIM, 1-FLIP) for Sponza.

Paper: SSIM 0.83/0.80/0.68 and 1-FLIP 0.86/0.85/0.65 for desktop /
Jetson-HP / Jetson-LP.  Expected shape here: monotone degradation with
platform constraint.  (Our degradation is gentler: the synthetic stereo
front-end tolerates dropped frames better than real KLT on blurred images
-- see EXPERIMENTS.md.)
"""

from conftest import save_report

from repro.analysis.report import render_table5
from repro.metrics.qoe import evaluate_image_quality


def test_table5_image_quality(sponza_runs):
    results = {}
    for run in sorted(sponza_runs, key=lambda r: r.platform.cpu_scale):
        results[run.platform.key] = evaluate_image_quality(run, max_frames=12)
    text = render_table5(results)
    save_report("table5_image_quality", text)

    for result in results.values():
        assert 0.5 < result.ssim_mean <= 1.0
        assert 0.5 < result.one_minus_flip_mean <= 1.0
    # Monotone degradation desktop -> Jetson-HP -> Jetson-LP.
    assert (
        results["desktop"].ssim_mean
        >= results["jetson-hp"].ssim_mean
        >= results["jetson-lp"].ssim_mean
    )
    assert results["desktop"].ssim_mean > results["jetson-lp"].ssim_mean
    assert results["desktop"].one_minus_flip_mean >= results["jetson-lp"].one_minus_flip_mean
