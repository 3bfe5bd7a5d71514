"""Extension bench (§II footnote 2): VIO offloading.

Not a paper table/figure -- the paper *describes* the offloading module as
implemented-and-growing; this bench regenerates the trade-off it exists
for: offloading VIO from Jetson-LP to a desktop-class edge server restores
the camera-rate pose stream and frees local CPU, at the price of a
network round trip that grows the pose age.
"""

from conftest import save_report

from repro.analysis.experiments import offload_comparison


def test_ext_offloading():
    comparison = offload_comparison(duration_s=4.0)
    text = (
        "Extension (§II fn.2): VIO local vs offloaded (Jetson-LP -> desktop)\n"
        f"{'metric':24s} {'local':>10s} {'offloaded':>10s}\n"
        f"{'VIO rate (Hz)':24s} {comparison.local_vio_rate_hz:10.1f} "
        f"{comparison.offloaded_vio_rate_hz:10.1f}\n"
        f"{'VIO CPU share':24s} {comparison.local_vio_cpu_share:10.2%} "
        f"{comparison.offloaded_vio_cpu_share:10.2%}\n"
        f"{'VIO ATE (cm)':24s} {comparison.local_ate_cm:10.1f} "
        f"{comparison.offloaded_ate_cm:10.1f}\n"
        f"mean round trip: {comparison.mean_round_trip_ms:.1f} ms"
    )
    save_report("ext_offloading", text)

    assert comparison.offloaded_vio_rate_hz > comparison.local_vio_rate_hz
    assert comparison.offloaded_vio_cpu_share < 0.3 * comparison.local_vio_cpu_share
    assert comparison.mean_round_trip_ms < 66.7  # inside the camera period
