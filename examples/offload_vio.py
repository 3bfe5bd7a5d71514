"""VIO offloading demo (§II, footnote 2 of the paper).

Runs the same integrated system on Jetson-LP twice -- once with VIO local,
once with VIO offloaded across a modeled wireless link to a desktop-class
edge server -- and prints the trade: the device gets its camera-rate pose
stream and its CPU back, in exchange for a network round trip on every
estimate.  Also sweeps link latency to find where offloading stops paying.

Usage::

    python examples/offload_vio.py [duration_s]
"""

import sys

from repro.analysis.experiments import offload_comparison
from repro.core.config import SystemConfig
from repro.hardware.platform import DESKTOP, JETSON_LP
from repro.plugins.offload import NetworkLink, OffloadedVioPlugin, build_offloaded_runtime


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 6.0

    print(f"Jetson-LP running Platformer, VIO local vs offloaded to desktop "
          f"({duration:g}s virtual)\n")
    comparison = offload_comparison(duration_s=duration)
    print(f"{'':24s} {'local':>10s} {'offloaded':>10s}")
    print(f"{'VIO rate (Hz)':24s} {comparison.local_vio_rate_hz:10.1f} "
          f"{comparison.offloaded_vio_rate_hz:10.1f}")
    print(f"{'VIO CPU share':24s} {comparison.local_vio_cpu_share:10.1%} "
          f"{comparison.offloaded_vio_cpu_share:10.1%}")
    print(f"{'VIO ATE (cm)':24s} {comparison.local_ate_cm:10.1f} "
          f"{comparison.offloaded_ate_cm:10.1f}")
    print(f"\nmean round trip: {comparison.mean_round_trip_ms:.1f} ms "
          "(uplink + desktop VIO + downlink)")

    print("\nLink-latency sweep (one-way ms -> pose-stream staleness):")
    config = SystemConfig(duration_s=duration, fidelity="full")
    for latency_ms in (2.0, 10.0, 30.0):
        link = NetworkLink(latency_s=latency_ms / 1e3)
        runtime = build_offloaded_runtime(JETSON_LP, DESKTOP, "platformer", config, link=link)
        result = runtime.run()
        plugin = next(p for p in runtime.plugins if isinstance(p, OffloadedVioPlugin))
        import numpy as np

        rtt = np.mean(plugin.round_trips) * 1e3 if plugin.round_trips else float("nan")
        print(f"  one-way {latency_ms:5.1f} ms: rtt {rtt:6.1f} ms, "
              f"VIO rate {result.frame_rate('vio'):5.1f} Hz, "
              f"ATE {result.vio_ate().mean_m * 100:5.1f} cm")
    print("\nAt high latency the pose anchor goes stale and the IMU "
          "integrator must bridge longer gaps -- the §II trade-off.")


if __name__ == "__main__":
    main()
