"""Unit tests for the platform, timing, power, and microarchitecture models."""

import math

import numpy as np
import pytest

from repro.hardware.platform import (
    DESKTOP,
    JETSON_HP,
    JETSON_LP,
    PLATFORMS,
    TABLE_I_REQUIREMENTS,
    platform_by_key,
)
from repro.hardware.power import PowerModel, RailModel
from repro.hardware.timing import TimingModel
from repro.hardware.uarch import (
    COMPONENT_PROFILES,
    MicroarchModel,
    WorkloadProfile,
    component_breakdowns,
)


# ---------------------------------------------------------------------------
# Platforms
# ---------------------------------------------------------------------------


def test_three_platforms_registered():
    assert set(PLATFORMS) == {"desktop", "jetson-hp", "jetson-lp"}


def test_platform_lookup():
    assert platform_by_key("desktop") is DESKTOP
    with pytest.raises(KeyError):
        platform_by_key("raspberry-pi")


def test_platform_scaling_ordering():
    assert DESKTOP.cpu_scale < JETSON_HP.cpu_scale < JETSON_LP.cpu_scale
    assert DESKTOP.gpu_scale < JETSON_HP.gpu_scale < JETSON_LP.gpu_scale


def test_only_desktop_has_gpu_priority_contexts():
    assert DESKTOP.gpu_priority_contexts
    assert not JETSON_HP.gpu_priority_contexts
    assert not JETSON_LP.gpu_priority_contexts


def test_platform_cycles():
    assert DESKTOP.cycles(1.0) == pytest.approx(3.4e9)


def test_table_i_has_four_devices():
    assert [d.device for d in TABLE_I_REQUIREMENTS] == [
        "Varjo VR-3", "Ideal VR", "HoloLens 2", "Ideal AR",
    ]


# ---------------------------------------------------------------------------
# Timing model
# ---------------------------------------------------------------------------


def test_sample_positive_and_reproducible():
    a = TimingModel(DESKTOP, seed=1)
    b = TimingModel(DESKTOP, seed=1)
    sample_a = a.sample("vio")
    sample_b = b.sample("vio")
    assert sample_a.cpu_time == sample_b.cpu_time
    assert sample_a.cpu_time > 0
    assert sample_a.gpu_time == 0.0


def test_sample_mean_close_to_model_mean():
    timing = TimingModel(DESKTOP, seed=2)
    samples = [timing.sample("vio").cpu_time for _ in range(3000)]
    assert np.mean(samples) == pytest.approx(12.0e-3, rel=0.05)
    cov = np.std(samples) / np.mean(samples)
    assert cov == pytest.approx(0.21, rel=0.2)


def test_platform_scaling_applied():
    desktop = TimingModel(DESKTOP, seed=0).mean_cost("audio_encoding")
    jetson = TimingModel(JETSON_LP, seed=0).mean_cost("audio_encoding")
    assert jetson.cpu_time == pytest.approx(desktop.cpu_time * 4.2)


def test_application_costs_ordered_by_scene_complexity():
    timing = TimingModel(DESKTOP, seed=0)
    totals = [
        timing.mean_cost("application", app=a).total
        for a in ("sponza", "materials", "platformer", "ar_demo")
    ]
    assert totals == sorted(totals, reverse=True)


def test_application_requires_app_name():
    timing = TimingModel(DESKTOP, seed=0)
    with pytest.raises(ValueError):
        timing.sample("application")
    with pytest.raises(KeyError):
        timing.sample("application", app="doom")


def test_unknown_component_rejected():
    with pytest.raises(KeyError):
        TimingModel(DESKTOP, seed=0).sample("flux_capacitor")


def test_complexity_scales_sample():
    timing = TimingModel(DESKTOP, seed=3)
    plain = np.mean([timing.sample("vio", complexity=1.0).cpu_time for _ in range(500)])
    double = np.mean([timing.sample("vio", complexity=2.0).cpu_time for _ in range(500)])
    assert double == pytest.approx(2 * plain, rel=0.15)
    for complexity in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            timing.sample("vio", complexity=complexity)


def test_p90_exceeds_mean_cost():
    timing = TimingModel(DESKTOP, seed=0)
    assert timing.p90("timewarp") > timing.mean_cost("timewarp").total > 0


def test_gpu_components_have_gpu_time():
    timing = TimingModel(DESKTOP, seed=0)
    assert timing.sample("hologram").gpu_time > 0
    assert timing.sample("timewarp").gpu_time > 0


# ---------------------------------------------------------------------------
# Power model
# ---------------------------------------------------------------------------


def test_rail_power_interpolates():
    rail = RailModel(static_w=1.0, active_w=3.0)
    assert rail.power(0.0) == 1.0
    assert rail.power(1.0) == 4.0
    with pytest.raises(ValueError):
        rail.power(1.5)


def test_power_totals_ordered_across_platforms():
    totals = []
    for platform in (DESKTOP, JETSON_HP, JETSON_LP):
        breakdown = PowerModel(platform).breakdown(cpu_utilization=0.3, gpu_utilization=0.8)
        totals.append(breakdown.total)
    assert totals[0] > 5 * totals[1] > 5 * totals[2] / 2
    # Desktop is O(100 W); Jetson-LP is O(7 W).
    assert totals[0] > 80
    assert totals[2] < 12


def test_desktop_gpu_dominates_under_load():
    breakdown = PowerModel(DESKTOP).breakdown(cpu_utilization=0.2, gpu_utilization=0.9)
    shares = breakdown.share()
    assert shares["GPU"] > 0.5


def test_jetson_lp_soc_sys_majority():
    """The paper's §IV-A2 headline: SoC+Sys > 50% on Jetson-LP."""
    breakdown = PowerModel(JETSON_LP).breakdown(cpu_utilization=0.15, gpu_utilization=0.6)
    shares = breakdown.share()
    assert shares["SoC"] + shares["Sys"] > 0.5


def test_desktop_has_no_soc_rail():
    breakdown = PowerModel(DESKTOP).breakdown(0.1, 0.1)
    assert "SoC" not in breakdown.rails


def test_power_shares_sum_to_one():
    breakdown = PowerModel(JETSON_HP).breakdown(0.4, 0.7)
    assert sum(breakdown.share().values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Microarchitecture model
# ---------------------------------------------------------------------------


def test_breakdown_fractions_sum_to_one():
    model = MicroarchModel()
    for profile in COMPONENT_PROFILES.values():
        breakdown = model.breakdown(profile)
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)
        for value in breakdown.fractions().values():
            assert 0.0 <= value <= 1.0


def test_fig8_component_shapes():
    """The paper's Fig. 8 orderings: reprojection lowest IPC and
    frontend-bound; audio playback highest IPC and retiring-heavy."""
    breakdowns = component_breakdowns()
    assert breakdowns["timewarp"].ipc < 0.5
    assert breakdowns["timewarp"].frontend_bound > 0.4
    assert breakdowns["audio_playback"].ipc > 3.0
    assert breakdowns["audio_playback"].retiring > 0.8
    assert 1.5 < breakdowns["vio"].ipc < 2.6
    assert breakdowns["audio_encoding"].backend_bound > 0.15  # the divider
    assert breakdowns["scene_reconstruction"].backend_bound > 0.4  # memory-bound


def test_ipc_ordering_matches_paper():
    b = component_breakdowns()
    assert b["timewarp"].ipc < b["vio"].ipc < b["audio_encoding"].ipc < b["audio_playback"].ipc


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile(vector_frac=1.5, div_frac=0, icache_kb=10, branch_mpki=1,
                        working_set_kb=10, mem_intensity=0.1)
    with pytest.raises(ValueError):
        WorkloadProfile(vector_frac=0.5, div_frac=0, icache_kb=0, branch_mpki=1,
                        working_set_kb=10, mem_intensity=0.1)


def test_larger_working_set_more_backend_bound():
    model = MicroarchModel()
    base = dict(vector_frac=0.5, div_frac=0.0, icache_kb=16, branch_mpki=1.0, mem_intensity=0.3)
    small = model.breakdown(WorkloadProfile(working_set_kb=16, **base))
    big = model.breakdown(WorkloadProfile(working_set_kb=100_000, **base))
    assert big.backend_bound > small.backend_bound
    assert big.ipc < small.ipc


def test_divider_pressure_hurts():
    model = MicroarchModel()
    base = dict(vector_frac=0.7, icache_kb=24, branch_mpki=0.5,
                working_set_kb=64, mem_intensity=0.1)
    no_div = model.breakdown(WorkloadProfile(div_frac=0.0, **base))
    div = model.breakdown(WorkloadProfile(div_frac=0.05, **base))
    assert div.ipc < no_div.ipc
