"""Quickstart: boot the integrated XR system and read its vital signs.

Runs the paper's integrated configuration (camera, IMU, VIO, integrator,
application, reprojection, spatial audio) for a few virtual seconds on the
desktop platform model, then prints what an XR systems researcher looks at
first: per-component frame rates vs targets, CPU attribution,
motion-to-photon latency, power, and VIO accuracy.

Usage::

    python examples/quickstart.py [app] [platform] [duration_s]

    app       sponza | materials | platformer | ar_demo   (default sponza)
    platform  desktop | jetson-hp | jetson-lp              (default desktop)
"""

import sys

from repro import PLATFORMS, SystemConfig, build_runtime
from repro.analysis.experiments import FIG3_TARGETS


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "sponza"
    platform_key = sys.argv[2] if len(sys.argv) > 2 else "desktop"
    duration = float(sys.argv[3]) if len(sys.argv) > 3 else 5.0

    platform = PLATFORMS[platform_key]
    config = SystemConfig(duration_s=duration, fidelity="full")
    print(f"Booting {app} on {platform.name} for {duration:g} virtual seconds...")
    result = build_runtime(platform, app, config).run()

    print("\nComponent frame rates (achieved / target Hz):")
    for name, rate in sorted(result.frame_rates().items()):
        target = FIG3_TARGETS.get(name)
        flag = ""
        if target is not None and rate < 0.95 * target:
            flag = "  <-- missing target"
        print(f"  {name:16s} {rate:7.1f} / {target or float('nan'):g}{flag}")

    print("\nCPU time share (Fig. 5 view):")
    for name, share in sorted(result.cpu_share().items(), key=lambda kv: -kv[1]):
        print(f"  {name:16s} {share * 100:5.1f}%")

    mtp = result.mtp_summary()
    print(
        f"\nMotion-to-photon latency: {mtp.mean_ms:.1f} +- {mtp.std_ms:.1f} ms "
        f"(VR target 20 ms met on {mtp.vr_target_met_fraction * 100:.0f}% of frames)"
    )

    print(f"Power: {result.power.total:.1f} W total "
          f"({', '.join(f'{k} {v:.1f}' for k, v in result.power.rails.items())})")

    ate = result.vio_ate()
    if ate is not None:
        print(f"VIO: {ate.count} estimates, mean position error {ate.mean_m * 100:.1f} cm")


if __name__ == "__main__":
    main()
