"""Extension bench (§V.C + footnote 3): sensor knobs and pose prediction.

§V.C: "reducing camera exposure can save power at the cost of a darker
image ... decisions must consider the entire system" -- the exposure sweep
regenerates that trade-off curve (sensor power vs VIO accuracy).

Footnote 3: ILLIXR can predict the pose for the actual display time; in
the staleness-dominated regime prediction nearly eliminates display-time
pose error.
"""

from conftest import save_report

from repro.analysis.experiments import camera_exposure_sweep
from repro.core.config import SystemConfig
from repro.core.runtime import build_runtime
from repro.hardware.platform import DESKTOP


def test_ext_exposure_sweep():
    points = camera_exposure_sweep(exposures_ms=(0.25, 0.5, 1.0, 2.0, 4.0), duration_s=6.0)
    lines = ["Extension (§V.C): camera exposure knob -- sensor power vs VIO accuracy",
             f"{'exposure ms':>12s} {'sensor W':>10s} {'px noise':>10s} {'ATE cm':>8s}"]
    for p in points:
        lines.append(
            f"{p.exposure_ms:12.2f} {p.sensor_power_w:10.3f} "
            f"{p.pixel_noise_px:10.2f} {p.vio_ate_cm:8.1f}"
        )
    save_report("ext_exposure_sweep", "\n".join(lines))

    powers = [p.sensor_power_w for p in points]
    errors = [p.vio_ate_cm for p in points]
    assert powers == sorted(powers)                   # power rises with exposure
    assert errors[0] > errors[-1]                     # accuracy improves with it
    assert errors[0] > 1.3 * errors[-1]               # a real knee, not noise


def test_ext_pose_prediction():
    import numpy as np

    base = SystemConfig(duration_s=3.0, fidelity="model", seed=1)

    def display_error(result):
        return float(np.mean([
            event.warp_pose.rotation_error(result.ground_truth(event.submit_time))
            for event in result.display_events
        ]))

    without = build_runtime(DESKTOP, "platformer", base).run()
    predicted = build_runtime(
        DESKTOP, "platformer", base.with_overrides(pose_prediction=True)
    ).run()
    err_without = display_error(without)
    err_with = display_error(predicted)
    save_report(
        "ext_pose_prediction",
        "Extension (fn. 3): reprojection pose prediction (staleness regime)\n"
        f"display-time rotation error without prediction: {err_without * 1e3:.2f} mrad\n"
        f"display-time rotation error with prediction:    {err_with * 1e3:.2f} mrad",
    )

    assert err_with < 0.2 * err_without
