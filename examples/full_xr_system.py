"""The full Fig. 1 workflow: all eleven components in one system.

Boots the extended configuration (the standard eight plugins plus eye
tracking, depth camera + scene reconstruction, and holographic display),
runs it with real algorithms, prints every component's achieved rate, and
exports the reconstructed map as a PLY surfel cloud you can open in any
point-cloud viewer.

Usage::

    python examples/full_xr_system.py [duration_s] [output.ply]
"""

import sys

from repro.core.config import SystemConfig
from repro.hardware.platform import DESKTOP
from repro.perception.reconstruction.surface import extract_surfels, surface_error_vs_scene
from repro.plugins.extended import (
    EyeTrackingPlugin,
    SceneReconstructionPlugin,
    build_extended_runtime,
)


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 3.0
    ply_path = sys.argv[2] if len(sys.argv) > 2 else "scene_map.ply"

    print(f"Booting all eleven components on the desktop for {duration:g} virtual seconds...")
    config = SystemConfig(duration_s=duration, fidelity="full", seed=0)
    runtime = build_extended_runtime(DESKTOP, "sponza", config)
    result = runtime.run()

    print("\nComponent frame rates (achieved Hz):")
    for name, rate in sorted(result.frame_rates().items()):
        print(f"  {name:22s} {rate:7.1f}")

    recon = next(p for p in runtime.plugins if isinstance(p, SceneReconstructionPlugin))
    eye = next(p for p in runtime.plugins if isinstance(p, EyeTrackingPlugin))
    print(f"\nEye tracking: {eye.predictions} stereo predictions")
    print(f"Scene reconstruction: {recon.frames_fused} depth frames fused, "
          f"{recon.pipeline_impl.volume.occupied_fraction:.1%} of volume observed")

    cloud = extract_surfels(recon.pipeline_impl.volume)
    if len(cloud) > 0:
        error = surface_error_vs_scene(cloud, recon.pipeline_impl.camera)
        cloud.save_ply(ply_path)
        print(f"Surfel map: {len(cloud)} surfels, "
              f"mean surface error {error * 100:.1f} cm -> {ply_path}")
    else:
        print("Surfel map empty (run longer to accumulate depth frames).")

    ate = result.vio_ate()
    if ate is not None:
        print(f"VIO: mean position error {ate.mean_m * 100:.1f} cm "
              f"over {ate.count} estimates")
    mtp = result.mtp_summary()
    print(f"MTP: {mtp.mean_ms:.1f} +- {mtp.std_ms:.1f} ms; "
          f"power {result.power.total:.0f} W")


if __name__ == "__main__":
    main()
