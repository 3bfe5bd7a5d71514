"""Extension bench (§IV-A1 / §V-A): display configuration sweep.

"Although we assume modern display resolutions and refresh rates, future
systems will support larger and faster displays with larger field-of-view
... further stressing the entire system."  This sweep quantifies that
claim on Jetson-HP: the visual pipeline that misses its targets at 2K/90
recovers at 720p, and collapses further at a 150-degree field of view.
"""

from conftest import save_report

from repro.core.config import SystemConfig
from repro.core.runtime import build_runtime
from repro.hardware.platform import JETSON_HP


def test_ext_display_sweep():
    settings = [
        ("720p", 90.0),
        ("1080p", 90.0),
        ("2K", 90.0),
        ("2K", 150.0),
    ]
    rows = ["Extension (§IV-A1): display knobs on Jetson-HP (Sponza)",
            f"{'resolution':>10s} {'FoV':>6s} {'app Hz':>8s} {'warp Hz':>8s} {'MTP ms':>8s}"]
    measured = []
    for resolution, fov in settings:
        config = SystemConfig(
            duration_s=3.0, fidelity="model", seed=0,
            display_resolution=resolution, field_of_view_deg=fov,
        )
        result = build_runtime(JETSON_HP, "sponza", config).run()
        mtp = result.mtp_summary().mean_ms
        measured.append((result.frame_rate("application"), result.frame_rate("timewarp"), mtp))
        rows.append(
            f"{resolution:>10s} {fov:6.0f} {measured[-1][0]:8.1f} "
            f"{measured[-1][1]:8.1f} {mtp:8.1f}"
        )
    save_report("ext_display_sweep", "\n".join(rows))

    app_rates = [m[0] for m in measured]
    mtps = [m[2] for m in measured]
    # Application rate falls monotonically as the display grows.
    assert app_rates[0] > app_rates[1] > app_rates[2] > app_rates[3]
    # MTP degrades from the small display to the large-FoV one.
    assert mtps[3] > mtps[0]
