"""Unit tests for the Table III system configuration."""

import pytest

from repro.core.config import (
    DEFAULT_CONFIG,
    RESOLUTIONS,
    SystemConfig,
    TABLE_III_PARAMETERS,
)


def test_defaults_match_table_iii_tuned_values():
    config = SystemConfig()
    assert config.camera_rate_hz == 15.0
    assert config.camera_resolution == "VGA"
    assert config.camera_exposure_ms == 1.0
    assert config.imu_rate_hz == 500.0
    assert config.display_rate_hz == 120.0
    assert config.display_resolution == "2K"
    assert config.field_of_view_deg == 90.0
    assert config.audio_rate_hz == 48.0
    assert config.audio_block_size == 1024


@pytest.mark.parametrize(
    "field,value",
    [
        ("camera_rate_hz", 10.0),
        ("camera_rate_hz", 150.0),
        ("camera_resolution", "8K"),
        ("camera_exposure_ms", 0.1),
        ("camera_exposure_ms", 30.0),
        ("imu_rate_hz", 0.0),
        ("imu_rate_hz", 1000.0),
        ("display_rate_hz", 20.0),
        ("display_rate_hz", 200.0),
        ("display_resolution", "4K"),
        ("field_of_view_deg", 0.0),
        ("field_of_view_deg", 200.0),
        ("audio_rate_hz", 44.1),
        ("audio_rate_hz", 100.0),
        ("audio_block_size", 128),
        ("audio_block_size", 4096),
        ("duration_s", -1.0),
        ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("fidelity", "half"),
        ("vio_quality", "ultra"),
    ],
)
def test_out_of_range_values_rejected(field, value):
    with pytest.raises(ValueError):
        SystemConfig(**{field: value})


def test_period_properties():
    config = SystemConfig()
    assert config.camera_period == pytest.approx(1 / 15)
    assert config.imu_period == pytest.approx(1 / 500)
    assert config.vsync_period == pytest.approx(1 / 120)
    assert config.audio_period == pytest.approx(1 / 48)


def test_display_pixels():
    assert SystemConfig().display_pixels == 2560 * 1440
    assert SystemConfig(display_resolution="1080p").display_pixels == 1920 * 1080


def test_with_overrides_returns_new_config():
    config = SystemConfig()
    changed = config.with_overrides(display_rate_hz=90.0)
    assert changed.display_rate_hz == 90.0
    assert config.display_rate_hz == 120.0


def test_with_overrides_validates():
    with pytest.raises(ValueError):
        SystemConfig().with_overrides(display_rate_hz=999.0)


def test_table_iii_has_all_components():
    components = {p.component for p in TABLE_III_PARAMETERS}
    assert any("Camera" in c for c in components)
    assert any("IMU" in c for c in components)
    assert any("Display" in c for c in components)
    assert any("Audio" in c for c in components)


def test_table_iii_deadlines():
    deadlines = {p.name: p.deadline_ms for p in TABLE_III_PARAMETERS if p.deadline_ms}
    assert deadlines["Frame rate"] in (66.7, 2.0, 8.33, 20.8)


def test_resolutions_cover_table_values():
    assert set(RESOLUTIONS) >= {"VGA", "2K"}


def test_default_config_is_valid_singleton():
    assert DEFAULT_CONFIG.fidelity == "full"
