"""§V.E ablation: VIO accuracy vs performance.

Paper: "the average trajectory error could be reduced from 8.1 cm to
4.9 cm at the cost of a 1.5x increase in average per-frame execution
time" -- and, crucially, whether that trade is worth it is only decidable
at the *system* level.  Expected shape: the high-accuracy preset cuts ATE
by roughly 40% at roughly 1.5x per-frame cost.
"""

from conftest import save_report

from repro.analysis.experiments import vio_accuracy_ablation
from repro.analysis.report import render_ablation


def test_vio_accuracy_vs_cost():
    standard, high = vio_accuracy_ablation(duration_s=15.0)
    save_report("ablation_vio_params", render_ablation(standard, high))

    # Accuracy improves substantially...
    assert high.ate_cm < 0.75 * standard.ate_cm
    # ...at a meaningful but bounded cost (paper: 1.5x).
    ratio = high.mean_frame_time_ms / standard.mean_frame_time_ms
    assert 1.15 < ratio < 2.5
    # Error magnitudes in the paper's regime (cm, not mm or m).
    assert 1.0 < high.ate_cm < 15.0
    assert 2.0 < standard.ate_cm < 20.0
