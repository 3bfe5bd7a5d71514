"""Runtime assembly: plugins + platform -> a running XR system.

:func:`build_runtime` assembles the paper's integrated configuration
(§III-B): camera, IMU, VIO, integrator, application, reprojection, audio
encoding and playback.  (Eye tracking, scene reconstruction, and hologram
run standalone, as in the paper, because the integrated OpenXR path has no
consumer for them; see :mod:`repro.analysis.standalone`.)

:meth:`Runtime.run` executes the system for the configured duration on the
simulated platform and returns a :class:`RuntimeResult` with everything
the paper's figures need: invocation records, MTP samples, display events
(for offline image quality), resource utilization, and the power
breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.phonebook import Phonebook
from repro.core.plugin import Plugin
from repro.core.records import RecordLogger
from repro.core.scheduler import Scheduler
from repro.core.switchboard import Switchboard
from repro.hardware.platform import Platform
from repro.hardware.power import PowerBreakdown, PowerModel
from repro.hardware.timing import TimingModel
from repro.maths.se3 import Pose
from repro.maths.splines import TrajectorySpline
from repro.metrics.mtp import MtpSample, MtpSummary, summarize_mtp
from repro.perception.vio.msckf import VioEstimate
from repro.perf import profile
from repro.plugins.audio import AudioEncodingPlugin, AudioPlaybackPlugin
from repro.plugins.perception import CameraPlugin, ImuPlugin, IntegratorPlugin, VioPlugin
from repro.plugins.visual import ApplicationPlugin, DisplayEvent, TimewarpPlugin
from repro.sensors.camera import LandmarkField, StereoCamera
from repro.sensors.imu import ImuModel
from repro.sensors.trajectory import lab_walk_trajectory
from repro.sim.engine import Engine
from repro.visual.scenes import Scene, scene_by_name


@dataclass
class RuntimeResult:
    """Everything a completed run exposes for analysis."""

    platform: Platform
    app_name: str
    config: SystemConfig
    duration: float
    logger: RecordLogger
    mtp_samples: List[MtpSample]
    display_events: List[DisplayEvent]
    utilization: Dict[str, float]
    power: PowerBreakdown
    vio_trajectory: List[Tuple[float, VioEstimate]]
    fast_pose_count: int
    trajectory: TrajectorySpline
    # Resilience artifacts (None on unsupervised runs): the supervision
    # report and the fault injector's event-level injection log.
    supervision: Optional[Dict[str, object]] = None
    fault_log: List[object] = field(default_factory=list)
    # Observability (None unless the run opted in): the run's tracer and
    # its hooks -- see repro.obs.
    observability: Optional[object] = None

    def frame_rate(self, plugin: str) -> float:
        """Achieved frame rate of one plugin over the run (Fig. 3)."""
        return self.logger.frame_rate(plugin, self.duration)

    def frame_rates(self) -> Dict[str, float]:
        """Achieved frame rate per plugin."""
        return {name: self.frame_rate(name) for name in self.logger.plugins()}

    def cpu_share(self) -> Dict[str, float]:
        """Fraction of CPU cycles per plugin (Fig. 5)."""
        return self.logger.cpu_share()

    def mtp_summary(self) -> MtpSummary:
        """Motion-to-photon summary (Table IV row)."""
        return summarize_mtp(self.mtp_samples)

    def ground_truth(self, t: float) -> Pose:
        """The true head pose at virtual time ``t``."""
        sample = self.trajectory.sample(t)
        return Pose(sample.position, sample.orientation, timestamp=t)

    def summary(self) -> Dict[str, object]:
        """A JSON-serializable metrics snapshot (the paper artifact's
        ``results/metrics/metrics-<hardware>-<app>`` equivalent)."""
        mtp = self.mtp_summary()
        summary: Dict[str, object] = {
            "platform": self.platform.key,
            "app": self.app_name,
            "duration_s": self.duration,
            "frame_rates_hz": {k: round(v, 3) for k, v in self.frame_rates().items()},
            "cpu_share": {k: round(v, 5) for k, v in self.cpu_share().items()},
            "drops": {
                name: self.logger.drop_count(name) for name in self.logger.plugins()
            },
            "mtp_ms": {
                "mean": mtp.mean_ms,
                "std": mtp.std_ms,
                "p99": mtp.p99_ms,
                "max": mtp.max_ms,
                "count": mtp.count,
                "vr_target_met_fraction": mtp.vr_target_met_fraction,
                "ar_target_met_fraction": mtp.ar_target_met_fraction,
            },
            "power_w": {k: round(v, 3) for k, v in self.power.rails.items()},
            "power_total_w": round(self.power.total, 3),
            "utilization": {k: round(v, 5) for k, v in self.utilization.items()},
            "vio_estimates": len(self.vio_trajectory),
            "fast_pose_count": self.fast_pose_count,
        }
        summary["mtp_ms"]["degraded_fraction"] = mtp.degraded_fraction
        if self.supervision is not None:
            summary["supervision"] = self.supervision
            summary["faults_injected"] = len(self.fault_log)
        if self.observability is not None:
            summary["observability"] = self.observability.summary()
        return summary

    def save_metrics(self, path: str) -> None:
        """Write :meth:`summary` as JSON."""
        import json

        with open(path, "w") as handle:
            json.dump(self.summary(), handle, indent=2, sort_keys=True)

    # ------------------------------------------------------------------
    # Observability accessors (require observability=True on the run)
    # ------------------------------------------------------------------

    def _require_obs(self):
        if self.observability is None:
            raise RuntimeError(
                "run was not traced; pass observability=True to build_runtime"
            )
        return self.observability

    def chrome_trace(self) -> Dict[str, object]:
        """The run as a Chrome trace-event JSON object (Perfetto-loadable)."""
        from repro.obs.export import chrome_trace

        obs = self._require_obs()
        return chrome_trace(
            obs.tracer,
            metadata={"platform": self.platform.key, "app": self.app_name,
                      "duration_s": self.duration},
        )

    def export_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` to ``path``."""
        import json

        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)

    def critical_paths(self) -> List[object]:
        """Per-displayed-frame MTP decomposition walked from the trace."""
        from repro.obs.critical_path import critical_paths

        return critical_paths(self._require_obs().tracer)


class Runtime:
    """One bootable XR system instance."""

    def __init__(
        self,
        platform: Platform,
        config: SystemConfig,
        app_name: str,
        plugins: List[Plugin],
        trajectory: TrajectorySpline,
        timing: TimingModel,
        dilation: Optional[Dict[str, float]] = None,
        fault_plan=None,
        supervision=None,
        observability: bool = False,
    ) -> None:
        self.platform = platform
        self.config = config
        self.app_name = app_name
        self.plugins = plugins
        self.trajectory = trajectory
        self.engine = Engine()
        self.switchboard = Switchboard()
        self.phonebook = Phonebook()
        self.logger = RecordLogger()
        self.timing = timing
        # Resilience layer (repro.resilience): a fault plan implies
        # supervision (chaos without a supervisor would just crash the
        # engine); with neither, every hook stays on its zero-cost path.
        self.fault_plan = fault_plan
        self.supervisor = None
        if fault_plan is not None or supervision is not None:
            from repro.resilience.supervisor import RuntimeSupervisor, SupervisorConfig

            if isinstance(supervision, RuntimeSupervisor):
                self.supervisor = supervision
            else:
                self.supervisor = RuntimeSupervisor(supervision or SupervisorConfig())
            self.supervisor.attach(self.switchboard, self.engine)
        if fault_plan is not None:
            fault_plan.begin_run(self.engine)
            self.switchboard.install_injector(fault_plan)
        # Observability layer (repro.obs): opt-in causal tracing.
        self.observability = None
        if observability:
            from repro.obs import Observability

            self.observability = Observability()
            self.observability.attach(self.engine, self.switchboard)
        self.scheduler = Scheduler(
            self.engine,
            platform,
            self.timing,
            self.switchboard,
            self.logger,
            app_name=app_name,
            dilation=dilation,
            injector=fault_plan,
            supervisor=self.supervisor,
            observability=self.observability,
        )
        self.phonebook.register("engine", self.engine)
        self.phonebook.register("platform", platform)
        self.phonebook.register("config", config)
        self.phonebook.register("trajectory", trajectory)
        self.phonebook.register("timing", self.timing)
        if self.observability is not None:
            self.phonebook.register("observability", self.observability)

    def run(self, duration: Optional[float] = None) -> RuntimeResult:
        """Boot the system, run for ``duration`` seconds, collect results."""
        duration = duration if duration is not None else self.config.duration_s
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")

        vio_log: List[Tuple[float, VioEstimate]] = []
        fast_pose_count = [0]

        def collect_slow_pose(event) -> None:
            if event.data is not None:
                vio_log.append((event.publish_time, event.data))

        def collect_fast_pose(_event) -> None:
            fast_pose_count[0] += 1

        self.switchboard.topic("slow_pose").subscribe_callback(collect_slow_pose)
        self.switchboard.topic("fast_pose").subscribe_callback(collect_fast_pose)

        # Profiled kernels and task blocks nest as kernel spans in the
        # active invocation span of the installed tracer (a no-op while
        # profiling is disabled, the default).  The tracer is process-wide,
        # so each run installs its own (None when untraced) while it runs.
        previous_tracer = profile.set_tracer(
            self.observability.tracer if self.observability is not None else None
        )
        try:
            for plugin in self.plugins:
                plugin.setup(self.phonebook, self.switchboard)
            for plugin in self.plugins:
                self.scheduler.add_plugin(plugin)

            self.engine.run(until=duration)
            for plugin in self.plugins:
                plugin.finalize()
        finally:
            profile.set_tracer(previous_tracer)

        utilization = self.scheduler.utilization()
        power = PowerModel(self.platform).breakdown(
            cpu_utilization=utilization["cpu"], gpu_utilization=utilization["gpu"]
        )
        timewarp = next((p for p in self.plugins if isinstance(p, TimewarpPlugin)), None)
        return RuntimeResult(
            platform=self.platform,
            app_name=self.app_name,
            config=self.config,
            duration=duration,
            logger=self.logger,
            mtp_samples=list(timewarp.mtp_samples) if timewarp else [],
            display_events=list(timewarp.display_events) if timewarp else [],
            utilization=utilization,
            power=power,
            vio_trajectory=vio_log,
            fast_pose_count=fast_pose_count[0],
            trajectory=self.trajectory,
            supervision=self.supervisor.report() if self.supervisor is not None else None,
            fault_log=list(self.fault_plan.log) if self.fault_plan is not None else [],
            observability=self.observability,
        )


def build_runtime(
    platform: Platform,
    app_name: str = "sponza",
    config: Optional[SystemConfig] = None,
    trajectory: Optional[TrajectorySpline] = None,
    fault_plan=None,
    supervision=None,
    observability: bool = False,
) -> Runtime:
    """Assemble the paper's integrated system configuration (§III-B).

    ``fault_plan`` (a :class:`repro.resilience.FaultPlan`) and
    ``supervision`` (a :class:`repro.resilience.SupervisorConfig` or a
    prebuilt supervisor) opt the run into the resilience layer; both
    default to off, leaving the hot paths untouched.  ``observability=True``
    opts into causal tracing (:mod:`repro.obs`) under the same discipline.
    """
    config = config or SystemConfig()
    scene: Scene = scene_by_name(app_name)
    trajectory = trajectory or lab_walk_trajectory(
        duration=config.duration_s + 2.0, seed=config.seed
    )
    landmarks = LandmarkField(seed=config.seed + 100)
    camera = StereoCamera(
        landmarks=landmarks,
        exposure_ms=config.camera_exposure_ms,
        seed=config.seed + 200,
    )
    imu = ImuModel(trajectory, rate_hz=config.imu_rate_hz, seed=config.seed + 300)
    timing = TimingModel(platform, seed=config.seed)
    # Reprojection starts as late as possible: its p90 cost plus a margin
    # for GPU queueing (larger where the GPU cannot preempt), clamped
    # inside the vsync period (footnote 5 of the paper).
    queue_margin = 0.2e-3 if platform.gpu_priority_contexts else 1.0e-3
    lead = min(
        timing.percentile("timewarp", 0.90) * 1.15 + queue_margin,
        config.vsync_period * 0.9,
    )
    plugins: List[Plugin] = [
        CameraPlugin(config, camera, trajectory),
        ImuPlugin(config, imu),
        VioPlugin(config, camera, trajectory),
        IntegratorPlugin(config, trajectory),
        ApplicationPlugin(config, scene),
        TimewarpPlugin(config, lead=lead),
        AudioEncodingPlugin(config),
        AudioPlaybackPlugin(config),
    ]
    return Runtime(
        platform,
        config,
        app_name,
        plugins,
        trajectory,
        timing=timing,
        fault_plan=fault_plan,
        supervision=supervision,
        observability=observability,
    )
