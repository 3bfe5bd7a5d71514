"""Fig. 8: CPU IPC and top-down cycle breakdown per component.

Expected shape (§IV-B2): reprojection is frontend-bound at IPC ~0.3 (GPU
driver instruction footprint); audio playback retires ~86%+ of cycles at
IPC ~3.5; audio encoding is divider-limited around IPC 2.5; VIO sits near
IPC 2; the DNN/dense-SLAM components are backend(memory)-bound.
"""

from conftest import save_report

from repro.analysis.report import render_fig8
from repro.hardware.uarch import component_breakdowns


def test_fig8_uarch():
    text = render_fig8()
    save_report("fig8_microarchitecture", text)

    breakdowns = component_breakdowns()

    paper_ipc = {
        "vio": 2.2,
        "timewarp": 0.3,
        "audio_encoding": 2.5,
        "audio_playback": 3.5,
    }
    for name, expected in paper_ipc.items():
        measured = breakdowns[name].ipc
        assert abs(measured - expected) / expected < 0.35, (name, measured)

    assert breakdowns["timewarp"].frontend_bound > 0.45
    assert breakdowns["audio_playback"].retiring > 0.8
    assert breakdowns["audio_encoding"].backend_bound > breakdowns["audio_playback"].backend_bound
    assert breakdowns["scene_reconstruction"].backend_bound > 0.4
    # All fractions are proper distributions.
    for breakdown in breakdowns.values():
        assert abs(sum(breakdown.fractions().values()) - 1.0) < 1e-9
