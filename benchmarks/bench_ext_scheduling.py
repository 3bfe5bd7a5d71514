"""Extension bench (footnote 5): reprojection scheduled as late as possible.

DESIGN.md calls out the "schedule reprojection just before vsync" policy
as a design choice; this ablation quantifies it.  Scheduling timewarp
*early* in the vsync interval completes well before the swap, so the pose
it used is stale by almost a full frame by display time -- MTP balloons.
The late policy (lead ~= p90 cost) keeps the pose fresh.

Also regenerates the temporal-smoothness view (§II-C's jitter discussion)
across platforms.
"""

from conftest import save_report

from repro.core.config import SystemConfig
from repro.core.runtime import build_runtime
from repro.hardware.platform import DESKTOP
from repro.metrics.temporal import temporal_quality
from repro.plugins.visual import TimewarpPlugin


def _run_with_lead(lead: float):
    config = SystemConfig(duration_s=3.0, fidelity="model", seed=0)
    runtime = build_runtime(DESKTOP, "platformer", config)
    runtime.plugins = [
        TimewarpPlugin(config, lead=lead) if isinstance(plugin, TimewarpPlugin) else plugin
        for plugin in runtime.plugins
    ]
    return runtime.run()


def test_ext_late_scheduling_ablation():
    vsync = 1 / 120
    late = _run_with_lead(0.35 * vsync)   # just-in-time (the shipped policy)
    early = _run_with_lead(0.95 * vsync)  # start right after the previous vsync
    late_mtp = late.mtp_summary()
    early_mtp = early.mtp_summary()
    save_report(
        "ext_late_scheduling",
        "Extension (fn. 5): reprojection scheduling policy (desktop, Platformer)\n"
        f"late (lead=0.35 vsync):  MTP {late_mtp.mean_ms:.2f}+-{late_mtp.std_ms:.2f} ms\n"
        f"early (lead=0.95 vsync): MTP {early_mtp.mean_ms:.2f}+-{early_mtp.std_ms:.2f} ms",
    )

    # Early scheduling wastes most of the frame waiting for the swap:
    # the pose is stale by the extra lead.
    assert early_mtp.mean_ms > late_mtp.mean_ms + 3.0


def test_ext_temporal_smoothness(grid_runs):
    rows = ["Extension (§II-C): temporal smoothness (Sponza)",
            f"{'platform':12s} {'interval ms':>12s} {'jitter ms':>10s} "
            f"{'dropped':>8s} {'jerk':>8s} {'MTP CoV':>8s}"]
    by_platform = {}
    for run in grid_runs:
        if run.app_name != "sponza":
            continue
        quality = temporal_quality(
            run.display_events,
            run.mtp_samples,
            run.config.vsync_period,
        )
        by_platform[run.platform.key] = quality
        rows.append(
            f"{run.platform.key:12s} {quality.frame_interval_mean_ms:12.2f} "
            f"{quality.frame_interval_jitter_ms:10.2f} "
            f"{quality.dropped_vsync_fraction:8.2f} "
            f"{quality.pose_jerk_rad_s2:8.1f} {quality.mtp_cov:8.2f}"
        )
    save_report("ext_temporal_smoothness", "\n".join(rows))

    # Smoothness degrades with platform constraint: the desktop drops
    # (almost) no vsyncs; Jetson-LP drops many and jitters more.
    assert by_platform["desktop"].dropped_vsync_fraction < 0.05
    assert by_platform["jetson-lp"].dropped_vsync_fraction > 0.3
    assert (
        by_platform["jetson-lp"].frame_interval_jitter_ms
        > by_platform["desktop"].frame_interval_jitter_ms
    )
