"""Plain-text rendering of every table and figure the paper reports.

Each ``render_*`` function takes the corresponding experiment output and
returns the rows/series as a string, in the same structure as the paper's
artifact analysis scripts (``results/analysis/main.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.analysis.experiments import FIG3_TARGETS, VioAblationResult
from repro.analysis.standalone import TaskBreakdown
from repro.core.config import TABLE_III_PARAMETERS
from repro.core.registry import COMPONENT_REGISTRY
from repro.core.runtime import RuntimeResult
from repro.hardware.platform import TABLE_I_REQUIREMENTS
from repro.hardware.uarch import component_breakdowns
from repro.metrics.qoe import ImageQualityResult


def _table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    rows = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def render_table1() -> str:
    """Table I: ideal requirements vs state-of-the-art devices."""
    rows = []
    for device in TABLE_I_REQUIREMENTS:
        power = device.power_w
        power_str = "N/A" if power[0] != power[0] else (
            f"{power[0]:g}" if power[0] == power[1] else f"{power[0]:g} - {power[1]:g}"
        )
        rows.append(
            [
                device.device,
                f"{device.resolution_mpixels:g}",
                f"{device.field_of_view_deg[0]:g}x{device.field_of_view_deg[1]:g}",
                f"{device.refresh_rate_hz[0]:g}-{device.refresh_rate_hz[1]:g}",
                f"<{device.motion_to_photon_ms:g}",
                power_str,
                f"{device.weight_grams[0]:g}-{device.weight_grams[1]:g}",
            ]
        )
    return "Table I: requirements vs devices\n" + _table(
        ["Device", "MPix", "FoV (deg)", "Refresh (Hz)", "MTP (ms)", "Power (W)", "Weight (g)"],
        rows,
    )


def render_table2() -> str:
    """Table II: component algorithms and implementations."""
    rows = [
        [e.pipeline, e.component, e.algorithm, e.original, e.module]
        for e in COMPONENT_REGISTRY
    ]
    return "Table II: component algorithms/implementations\n" + _table(
        ["Pipeline", "Component", "Algorithm", "Stands in for", "Module"], rows
    )


def render_table3() -> str:
    """Table III: tuned system parameters."""
    rows = [
        [p.component, p.name, p.range_description, p.tuned,
         f"{p.deadline_ms:g} ms" if p.deadline_ms else "-"]
        for p in TABLE_III_PARAMETERS
    ]
    return "Table III: tuned parameters\n" + _table(
        ["Component", "Parameter", "Range", "Tuned", "Deadline"], rows
    )


def render_fig3(runs: List[RuntimeResult]) -> str:
    """Fig. 3: per-component frame rates per app per platform."""
    lines = ["Fig. 3: achieved frame rate (Hz) vs target"]
    platforms = sorted({r.platform.key for r in runs})
    for platform in platforms:
        lines.append(f"\n[{platform}]")
        cell_runs = [r for r in runs if r.platform.key == platform]
        components = [c for c in FIG3_TARGETS if any(
            c in r.frame_rates() for r in cell_runs)]
        rows = []
        for run in cell_runs:
            rates = run.frame_rates()
            rows.append(
                [run.app_name]
                + [f"{rates.get(c, 0.0):.1f}/{FIG3_TARGETS[c]:g}" for c in components]
            )
        lines.append(_table(["app"] + components, rows))
    return "\n".join(lines)


def render_fig4(run: RuntimeResult, max_points: int = 12) -> str:
    """Fig. 4: per-frame execution times (a textual timeline excerpt)."""
    lines = [f"Fig. 4: per-frame execution time (ms), {run.app_name} on {run.platform.key}"]
    for plugin in ("vio", "application", "camera", "integrator", "timewarp",
                   "audio_playback", "audio_encoding"):
        times = run.logger.execution_times(plugin)
        if not times:
            continue
        sampled = times[:: max(1, len(times) // max_points)][:max_points]
        mean = sum(times) / len(times)
        std = (sum((t - mean) ** 2 for t in times) / len(times)) ** 0.5
        series = " ".join(f"{t * 1e3:5.2f}" for t in sampled)
        lines.append(f"  {plugin:14s} mean={mean*1e3:6.2f} std={std*1e3:5.2f}  [{series} ...]")
    return "\n".join(lines)


def render_fig5(runs: List[RuntimeResult]) -> str:
    """Fig. 5: CPU-cycle attribution per component."""
    lines = ["Fig. 5: CPU time share per component (%)"]
    components = ["camera", "vio", "imu", "integrator", "application",
                  "timewarp", "audio_playback", "audio_encoding"]
    rows = []
    for run in runs:
        share = run.cpu_share()
        rows.append(
            [f"{run.platform.key}/{run.app_name}"]
            + [f"{share.get(c, 0.0) * 100:.1f}" for c in components]
        )
    return lines[0] + "\n" + _table(["cell"] + components, rows)


def render_fig6(runs: List[RuntimeResult]) -> str:
    """Fig. 6: total power and per-rail breakdown."""
    lines = ["Fig. 6a/6b: power (W) and rail shares (%)"]
    rows = []
    for run in runs:
        power = run.power
        shares = power.share()
        rows.append(
            [
                f"{run.platform.key}/{run.app_name}",
                f"{power.total:.1f}",
            ]
            + [f"{shares.get(rail, 0.0) * 100:.0f}" for rail in ("CPU", "GPU", "DDR", "SoC", "Sys")]
        )
    return lines[0] + "\n" + _table(
        ["cell", "total W", "CPU%", "GPU%", "DDR%", "SoC%", "Sys%"], rows
    )


def render_fig7(runs: List[RuntimeResult], max_points: int = 16) -> str:
    """Fig. 7: per-frame MTP timeline for one app on all platforms."""
    lines = ["Fig. 7: motion-to-photon latency per frame (ms)"]
    for run in runs:
        samples = run.mtp_samples
        if not samples:
            continue
        series = samples[:: max(1, len(samples) // max_points)][:max_points]
        text = " ".join(f"{s.total_ms:5.1f}" for s in series)
        lines.append(f"  {run.platform.key:10s} [{text} ...]")
    return "\n".join(lines)


def render_fig8() -> str:
    """Fig. 8: IPC + top-down cycle breakdown per component."""
    rows = []
    for name, breakdown in component_breakdowns().items():
        rows.append(
            [
                name,
                f"{breakdown.ipc:.2f}",
                f"{breakdown.retiring * 100:.0f}",
                f"{breakdown.bad_speculation * 100:.0f}",
                f"{breakdown.frontend_bound * 100:.0f}",
                f"{breakdown.backend_bound * 100:.0f}",
            ]
        )
    return "Fig. 8: cycle breakdown and IPC\n" + _table(
        ["component", "IPC", "retiring%", "bad spec%", "frontend%", "backend%"], rows
    )


def render_table4(runs: List[RuntimeResult]) -> str:
    """Table IV: MTP mean +- std per platform per app."""
    platforms = sorted({r.platform.key for r in runs})
    apps = []
    for run in runs:
        if run.app_name not in apps:
            apps.append(run.app_name)
    rows = []
    for platform in platforms:
        row = [platform]
        for app in apps:
            run = next((r for r in runs if r.platform.key == platform and r.app_name == app), None)
            if run is None:
                row.append("-")
            else:
                summary = run.mtp_summary()
                row.append(f"{summary.mean_ms:.1f}+-{summary.std_ms:.1f}")
        rows.append(row)
    return "Table IV: MTP (ms, mean+-std; VR target 20, AR target 5)\n" + _table(
        ["Platform"] + apps, rows
    )


def render_table5(results: Dict[str, ImageQualityResult]) -> str:
    """Table V: SSIM and 1-FLIP per platform (Sponza)."""
    rows = [
        [platform, f"{r.ssim_mean:.2f}+-{r.ssim_std:.2f}",
         f"{r.one_minus_flip_mean:.2f}+-{r.one_minus_flip_std:.2f}"]
        for platform, r in results.items()
    ]
    return "Table V: image quality (Sponza)\n" + _table(["Platform", "SSIM", "1-FLIP"], rows)


def render_task_breakdown(breakdown: TaskBreakdown) -> str:
    """One component's Table VI/VII block, with the paper's computation
    and memory-pattern columns."""
    from repro.analysis.tasks import descriptor

    shares = breakdown.shares()
    rows = []
    for task, share in shares.items():
        try:
            info = descriptor(breakdown.component, task)
            computation = "; ".join(info.computation)
            memory = info.memory_pattern
        except KeyError:
            computation = "-"
            memory = "-"
        rows.append([task, f"{share * 100:.0f}%", computation, memory])
    extras = "  ".join(f"{k}={v:.3g}" for k, v in breakdown.extras.items())
    header = (
        f"{breakdown.component}: {breakdown.frames} frames, "
        f"mean {breakdown.mean_frame_ms:.2f} ms/frame"
        + (f"  ({extras})" if extras else "")
    )
    return header + "\n" + _table(["Task", "Time", "Computation", "Memory pattern"], rows)


def render_ablation(standard: VioAblationResult, high: VioAblationResult) -> str:
    """§V.E: VIO accuracy/cost trade-off."""
    rows = [
        [r.quality, f"{r.ate_cm:.1f}", f"{r.mean_frame_time_ms:.1f}", str(r.frames)]
        for r in (standard, high)
    ]
    ratio = high.mean_frame_time_ms / max(standard.mean_frame_time_ms, 1e-9)
    footer = (
        f"\ncost ratio high/standard = {ratio:.2f}x "
        f"(paper: error 8.1 -> 4.9 cm at 1.5x cost)"
    )
    return (
        "§V.E: VIO accuracy vs performance\n"
        + _table(["quality", "ATE (cm)", "ms/frame", "frames"], rows)
        + footer
    )


def render_shared_primitives() -> str:
    """§V-B: compute primitives shared across components.

    The paper's case for shared accelerator blocks: "a number of common
    primitives exist across components; e.g., Cholesky in VIO and scene
    reconstruction."
    """
    from repro.analysis.tasks import shared_primitives

    rows = [
        [primitive, ", ".join(components)]
        for primitive, components in shared_primitives().items()
    ]
    return (
        "§V-B: primitives shared across components (candidate shared blocks)\n"
        + _table(["Primitive", "Components"], rows)
    )
