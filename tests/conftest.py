"""Shared fixtures: kept deliberately small/fast; session-scoped where the
object is expensive (dataset synthesis, trained eye tracker, full runs)."""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.hardware.platform import DESKTOP
from repro.sensors.dataset import make_vicon_room_dataset


@pytest.fixture(autouse=True)
def _isolate_profiler():
    """Reset the process-wide profiler registry around every test.

    The ``repro.perf.profile`` registry, enabled flag, and installed span
    tracer are module-level state; a test that enables profiling (or a
    traced run that installs a tracer) must not leak into its neighbours.
    """
    from repro.perf import profile

    was_enabled = profile._enabled
    yield
    profile.enable_profiling(was_enabled)
    profile.profile_summary(reset=True)
    profile.set_tracer(None)


@pytest.fixture(scope="session")
def small_dataset():
    """A 6-second offline dataset shared by VIO tests."""
    return make_vicon_room_dataset(duration=6.0, seed=1)


@pytest.fixture(scope="session")
def desktop_full_run():
    """One short full-fidelity integrated run on the desktop."""
    from repro.core.runtime import build_runtime

    config = SystemConfig(duration_s=3.0, fidelity="full", seed=0)
    return build_runtime(DESKTOP, "platformer", config).run()


@pytest.fixture
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def fault_plans():
    """Name -> factory(seed) for the canned chaos scenarios."""
    from repro.resilience.plans import CANNED_PLANS

    return dict(CANNED_PLANS)


@pytest.fixture
def degraded_runtime():
    """Factory for a runtime with chaos opted in, in one line.

    ``degraded_runtime("vio_crash_loop")`` or
    ``degraded_runtime(my_plan, fidelity="full", duration=10.0)`` returns
    an un-run :class:`~repro.core.runtime.Runtime` with the plan installed
    and default supervision; call ``.run()`` (and read the plan back via
    ``runtime.fault_plan``).
    """
    from repro.core.runtime import build_runtime
    from repro.resilience.plans import CANNED_PLANS
    from repro.resilience.supervisor import SupervisorConfig

    def make(
        plan,
        platform=DESKTOP,
        app="platformer",
        duration=3.0,
        fidelity="model",
        seed=0,
        plan_seed=0,
        supervision=None,
        **config_overrides,
    ):
        if isinstance(plan, str):
            plan = CANNED_PLANS[plan](plan_seed)
        config = SystemConfig(
            duration_s=duration, fidelity=fidelity, seed=seed, **config_overrides
        )
        return build_runtime(
            platform,
            app,
            config,
            fault_plan=plan,
            supervision=supervision or SupervisorConfig(),
        )

    return make
