"""Runtime supervision and deterministic fault injection.

The paper's runtime is expected to *degrade gracefully*: timewarp covers
missed renderer frames, and the fast path keeps serving poses when VIO
falls behind (§II-B, §IV-A).  This package creates those failure
scenarios on demand and pins the degradation behaviour down:

- :mod:`repro.resilience.faults` -- a seeded :class:`FaultPlan` that can
  drop, delay, duplicate, and corrupt switchboard events, raise
  exceptions inside plugin callbacks, stall a plugin, and skew a
  component's clock, with an event-level injection log that is
  bit-identical across runs with the same seed.
- :mod:`repro.resilience.supervisor` -- per-plugin supervisors (crash
  counting, bounded retry with backoff, watchdog hang detection against
  the per-component deadlines, quarantine) plus dead-letter routing for
  poison events.
- :mod:`repro.resilience.plans` -- canned chaos scenarios used by the
  soak suite (VIO crash-loop, renderer stall, IMU dropouts, corrupted
  camera frames) and a generator of random plans for property tests.

With no plan or supervisor installed, every hook in the scheduler and
switchboard is one attribute load and a branch.
``tests/test_resilience.py::test_zero_overhead_when_no_plan_installed``
checks that no injector or supervisor is attached then; the benchmark's
unsupervised workloads (``perfbench/``: ``integrated-full``,
``model-grid``) time that path.
"""

from repro.resilience.faults import (
    Corrupted,
    FaultPlan,
    InjectedFault,
    InjectionRecord,
)
from repro.resilience.plans import (
    CANNED_PLANS,
    corrupted_camera,
    imu_dropout,
    random_fault_plan,
    renderer_stall,
    vio_crash_loop,
)
from repro.resilience.supervisor import (
    PluginHealth,
    RuntimeSupervisor,
    SupervisionEvent,
    SupervisorConfig,
)

__all__ = [
    "CANNED_PLANS",
    "Corrupted",
    "FaultPlan",
    "InjectedFault",
    "InjectionRecord",
    "PluginHealth",
    "RuntimeSupervisor",
    "SupervisionEvent",
    "SupervisorConfig",
    "corrupted_camera",
    "imu_dropout",
    "random_fault_plan",
    "renderer_stall",
    "vio_crash_loop",
]
