"""Tests for the load-bearing system knobs: display resolution/rate/FoV
scaling and per-component clock dilation (§V.G)."""

import pytest

from repro.core.config import SystemConfig
from repro.core.runtime import Runtime, build_runtime
from repro.hardware.platform import DESKTOP, JETSON_HP
from repro.plugins.visual import display_cost_scale


def _run(platform, **config_kwargs):
    defaults = dict(duration_s=3.0, fidelity="model", seed=0)
    defaults.update(config_kwargs)
    return build_runtime(platform, "sponza", SystemConfig(**defaults)).run()


# ---------------------------------------------------------------------------
# Display knobs
# ---------------------------------------------------------------------------


def test_display_cost_scale_identity_at_defaults():
    assert display_cost_scale(SystemConfig()) == pytest.approx(1.0)


def test_display_cost_scale_monotone_in_pixels_and_fov():
    small = display_cost_scale(SystemConfig(display_resolution="720p"))
    large = display_cost_scale(SystemConfig(field_of_view_deg=150.0))
    assert small < 1.0 < large


def test_lower_resolution_restores_jetson_visual_pipeline():
    """§IV-A1 in reverse: shrinking the display relieves the Jetson."""
    full = _run(JETSON_HP)
    reduced = _run(JETSON_HP, display_resolution="720p")
    assert reduced.frame_rate("application") > 1.5 * full.frame_rate("application")
    assert reduced.frame_rate("timewarp") > full.frame_rate("timewarp")
    assert reduced.mtp_summary().mean_ms < full.mtp_summary().mean_ms


def test_wider_fov_stresses_the_application():
    narrow = _run(JETSON_HP, field_of_view_deg=60.0)
    wide = _run(JETSON_HP, field_of_view_deg=150.0)
    assert wide.frame_rate("application") < narrow.frame_rate("application")


def test_lower_refresh_rate_increases_mtp():
    """Slower vsync = longer swap waits after a miss."""
    fast = _run(JETSON_HP, display_rate_hz=120.0)
    slow = _run(JETSON_HP, display_rate_hz=60.0)
    assert slow.mtp_summary().mean_ms > fast.mtp_summary().mean_ms


def test_desktop_defaults_unaffected_by_scaling_identity():
    """The calibration anchor: defaults produce the calibrated behaviour."""
    result = _run(DESKTOP)
    assert result.mtp_summary().mean_ms < 5.0


# ---------------------------------------------------------------------------
# Clock dilation (§V.G idea 3)
# ---------------------------------------------------------------------------


def _dilated_run(dilation):
    config = SystemConfig(duration_s=3.0, fidelity="model", seed=0)
    base = build_runtime(DESKTOP, "platformer", config)
    runtime = Runtime(
        base.platform, config, "platformer", base.plugins, base.trajectory,
        timing=base.timing, dilation=dilation,
    )
    return runtime.run()


def test_dilation_slows_selected_component():
    normal = _dilated_run({})
    dilated = _dilated_run({"vio": 6.0})
    assert dilated.logger.mean_execution_time("vio") > 4 * normal.logger.mean_execution_time("vio")
    # A 6x-dilated VIO (72 ms) exceeds the camera period: frames drop.
    assert dilated.frame_rate("vio") < normal.frame_rate("vio")


def test_dilation_leaves_other_components_untouched():
    normal = _dilated_run({})
    dilated = _dilated_run({"vio": 6.0})
    assert dilated.logger.mean_execution_time("audio_playback") == pytest.approx(
        normal.logger.mean_execution_time("audio_playback"), rel=0.15
    )


def test_dilation_propagates_to_end_to_end_metrics():
    """The point of the hybrid-simulation hook: the rest of the system
    experiences the simulated component's speed."""
    dilated = _dilated_run({"timewarp": 8.0})
    normal = _dilated_run({})
    assert dilated.mtp_summary().mean_ms > normal.mtp_summary().mean_ms + 3.0


def test_dilation_validation():
    # Rejected when the runtime is built: an infinite factor would starve
    # VIO silently, a NaN one raise mid-run.
    for factor in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _dilated_run({"vio": factor})
