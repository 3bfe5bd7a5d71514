"""Perception-pipeline plugins: camera, IMU, VIO, IMU integrator."""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.core.config import SystemConfig
from repro.core.plugin import InvocationContext, IterationResult, OnTopic, Periodic, Plugin
from repro.core.phonebook import Phonebook
from repro.core.switchboard import Switchboard
from repro.maths.se3 import Pose
from repro.maths.splines import TrajectorySpline
from repro.perception.integrator import IntegratorState, Rk4Integrator
from repro.perception.vio.msckf import Msckf, MsckfConfig, VioEstimate
from repro.sensors.camera import StereoCamera
from repro.sensors.imu import ImuModel, ImuSample


class CameraPlugin(Plugin):
    """Publishes stereo feature frames at the camera rate (ZED stand-in)."""

    name = "camera"
    component = "camera"
    pipeline = "perception"

    def __init__(self, config: SystemConfig, camera: StereoCamera, trajectory: TrajectorySpline) -> None:
        super().__init__(Periodic(config.camera_period))
        self.config = config
        self.camera = camera
        self.trajectory = trajectory
        # The Table III resolution knob is load-bearing: camera processing
        # (debayer/rectify in a real driver) scales with the pixel count.
        from repro.core.config import RESOLUTIONS

        width, height = RESOLUTIONS[config.camera_resolution]
        vga = RESOLUTIONS["VGA"][0] * RESOLUTIONS["VGA"][1]
        self._static_scale = (width * height) / vga

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        result.complexity = self._static_scale
        if self.config.fidelity == "full":
            truth = self.trajectory.sample(ctx.now)
            pose = Pose(truth.position, truth.orientation, timestamp=ctx.now)
            frame = self.camera.observe(pose, timestamp=ctx.now)
            result.publish("camera", frame, data_time=ctx.now)
        else:
            result.publish("camera", None, data_time=ctx.now)
        return result


class ImuPlugin(Plugin):
    """Publishes IMU samples at the IMU rate."""

    name = "imu"
    component = "imu"
    pipeline = "perception"

    def __init__(self, config: SystemConfig, imu: ImuModel) -> None:
        super().__init__(Periodic(config.imu_period))
        self.config = config
        self.imu = imu

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        if self.config.fidelity == "full":
            sample = self.imu.sample_at(ctx.now)
        else:
            sample = ImuSample(timestamp=ctx.now, gyro=np.zeros(3), accel=np.zeros(3))
        result.publish("imu", sample, data_time=ctx.now)
        return result


class VioPlugin(Plugin):
    """OpenVINS stand-in: runs the MSCKF on each camera frame (sync dep)."""

    name = "vio"
    component = "vio"
    pipeline = "perception"

    def __init__(
        self,
        config: SystemConfig,
        camera: StereoCamera,
        trajectory: TrajectorySpline,
        msckf_config: Optional[MsckfConfig] = None,
    ) -> None:
        super().__init__(OnTopic("camera"))
        self.config = config
        self.camera = camera
        self.trajectory = trajectory
        self.msckf_config = msckf_config or (
            MsckfConfig.high_accuracy() if config.vio_quality == "high" else MsckfConfig.standard()
        )
        self.filter: Optional[Msckf] = None
        self._imu_reader = None
        self._frames_processed = 0
        self._last_frame_time: Optional[float] = None
        self._rng = np.random.default_rng(config.seed + 400)

    def setup(self, phonebook: Phonebook, switchboard: Switchboard) -> None:
        super().setup(phonebook, switchboard)
        # Only full fidelity drains IMU samples; a model-fidelity reader
        # would hold every sample of the run.
        if self.config.fidelity == "full":
            self._imu_reader = switchboard.topic("imu").subscribe_queue()

    def reset(self, reason=None) -> None:
        """Supervisor restart: relaunch the tracker from scratch.

        A restarted VIO process has no filter state; it re-initializes on
        the next frame, exactly like the first boot (the temporal parallax
        built so far is lost -- restarts are not free).
        """
        self.filter = None
        self._last_frame_time = None
        self._frames_processed = 0

    def _ensure_filter(self, now: float) -> Msckf:
        if self.filter is None:
            truth = self.trajectory.sample(now)
            initial = Pose(truth.position, truth.orientation, timestamp=now)
            self.filter = Msckf(
                self.msckf_config,
                self.camera.intrinsics,
                self.camera.baseline_m,
                initial,
                initial_velocity=truth.velocity,
            )
        return self.filter

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        if self.config.fidelity != "full":
            result.publish(
                "slow_pose",
                None,
                data_time=ctx.trigger_event.effective_data_time if ctx.trigger_event else ctx.now,
            )
            return result
        frame = ctx.trigger_event.data if ctx.trigger_event else None
        if frame is None:
            result.skipped = True
            return result
        vio = self._ensure_filter(frame.timestamp if self._frames_processed == 0 else ctx.now)
        # Dropped camera frames (VIO running behind) widen the tracking
        # baseline; a real KLT front-end loses features it cannot find
        # within its search window.  This is the mechanism behind the
        # paper's Jetson-LP pose drift (§IV-A3): the *average* frame rate
        # stays high, but every miss costs tracked features and therefore
        # accuracy.
        if self._last_frame_time is not None:
            gap = (frame.timestamp - self._last_frame_time) / self.config.camera_period
            if gap > 1.5:
                loss_probability = 1.0 - float(np.exp(-1.1 * (gap - 1.0)))
                for feature_id in list(vio.tracker.active):
                    if self._rng.random() < loss_probability:
                        del vio.tracker.active[feature_id]
                # Two or more consecutive misses exceed the KLT search
                # window entirely: the front-end re-detects from scratch
                # and the filter loses its temporal parallax (this is what
                # turns Jetson-LP's missed deadlines into visible drift).
                if gap >= 2.5:
                    vio.tracker.active.clear()
                    for feature_id in list(vio.state.landmarks):
                        vio.state.remove_landmark(feature_id)
        self._last_frame_time = frame.timestamp
        # Drain IMU samples up to the frame time (synchronous dependence).
        assert self._imu_reader is not None
        for event in self._imu_reader.drain():
            sample: ImuSample = event.data
            if sample.timestamp <= vio.state.timestamp:
                continue
            if sample.timestamp > frame.timestamp:
                break
            vio.process_imu(sample)
        estimate: VioEstimate = vio.process_frame(frame)
        self._frames_processed += 1
        if self.obs is not None:
            # Tracking health on the invocation span, so pose-quality
            # regressions are visible next to latency.
            self.obs.annotate(
                tracked_features=estimate.tracked_features,
                slam_landmarks=estimate.slam_landmarks,
            )
        # Input-dependence: more tracked features and landmarks = more work.
        tracked_ratio = min(
            1.0, estimate.tracked_features / max(self.msckf_config.max_features, 1)
        )
        slam_ratio = estimate.slam_landmarks / max(self.msckf_config.max_slam_landmarks, 1)
        complexity = 0.55 + 0.45 * tracked_ratio + 0.1 * slam_ratio
        result.complexity = float(np.clip(complexity, 0.4, 2.0))
        result.publish("slow_pose", estimate, data_time=frame.timestamp)
        return result


class IntegratorPlugin(Plugin):
    """RK4 integrator: fresh pose on every IMU sample (Fig. 2).

    Anchors on the latest VIO estimate (asynchronous dependence): when a
    newer ``slow_pose`` appears, the integrator resets to it and
    re-propagates the buffered IMU samples up to the present.
    """

    name = "integrator"
    component = "integrator"
    pipeline = "perception"

    def __init__(self, config: SystemConfig, trajectory: TrajectorySpline, buffer_seconds: float = 1.0) -> None:
        super().__init__(OnTopic("imu"))
        self.config = config
        self.trajectory = trajectory
        self._buffer: Deque[ImuSample] = deque()
        self._buffer_seconds = buffer_seconds
        self._integrator: Optional[Rk4Integrator] = None
        self._anchor_timestamp = -1.0
        self._slow_pose_topic = None
        # Degradation policy: when the supervisor quarantines VIO, keep
        # the fast path alive with IMU-only RK4 propagation (bootstrapping
        # from scratch if VIO never produced an anchor).
        self._vio_down = False
        self._announced_fallback = False

    def setup(self, phonebook: Phonebook, switchboard: Switchboard) -> None:
        super().setup(phonebook, switchboard)
        self._slow_pose_topic = switchboard.topic("slow_pose")

        def on_supervision(event) -> None:
            notice = event.data
            if (
                getattr(notice, "kind", None) == "quarantine"
                and getattr(notice, "plugin", None) == "vio"
            ):
                self._vio_down = True

        switchboard.topic("supervision").subscribe_callback(on_supervision)

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        sample: Optional[ImuSample] = ctx.trigger_event.data if ctx.trigger_event else None
        if sample is None:
            result.skipped = True
            return result
        if self.config.fidelity != "full":
            # Model fidelity: ground-truth pose with the IMU timestamp (the
            # timing pipeline still measures realistic pose ages).
            truth = self.trajectory.sample(sample.timestamp)
            pose = Pose(truth.position, truth.orientation, timestamp=sample.timestamp)
            result.publish("fast_pose", pose, data_time=sample.timestamp)
            return result

        self._buffer.append(sample)
        while self._buffer and self._buffer[0].timestamp < ctx.now - self._buffer_seconds:
            self._buffer.popleft()

        latest = self._slow_pose_topic.get_latest() if self._slow_pose_topic else None
        estimate: Optional[VioEstimate] = latest.data if latest else None
        if estimate is not None and estimate.timestamp > self._anchor_timestamp:
            self._anchor_timestamp = estimate.timestamp
            self._integrator = Rk4Integrator(
                IntegratorState(
                    timestamp=estimate.timestamp,
                    orientation=estimate.pose.orientation,
                    position=estimate.pose.position,
                    velocity=estimate.velocity,
                    gyro_bias=estimate.gyro_bias,
                    accel_bias=estimate.accel_bias,
                )
            )
            # Re-propagate buffered samples newer than the anchor.
            for buffered in self._buffer:
                if buffered.timestamp > estimate.timestamp and buffered.timestamp < sample.timestamp:
                    self._integrator.step(buffered)
        if self._vio_down and not self._announced_fallback:
            # Degradation policy: VIO is quarantined; announce that the
            # fast path is running IMU-only from here on.
            self._announced_fallback = True
            from repro.resilience.supervisor import SupervisionEvent

            result.publish(
                "supervision",
                SupervisionEvent(
                    time=ctx.now,
                    plugin=self.name,
                    kind="degraded",
                    detail="imu-only fallback: vio quarantined",
                ),
            )
        if self._integrator is None and self._vio_down:
            # VIO never anchored us: boot the integrator at the current
            # sample (as VIO itself would have at initialization) and
            # coast on dead reckoning.
            truth = self.trajectory.sample(sample.timestamp)
            self._integrator = Rk4Integrator(
                IntegratorState(
                    timestamp=sample.timestamp,
                    orientation=truth.orientation,
                    position=truth.position,
                    velocity=truth.velocity,
                    gyro_bias=np.zeros(3),
                    accel_bias=np.zeros(3),
                )
            )
        if self._integrator is None:
            result.skipped = True
            return result
        if sample.timestamp > self._integrator.state.timestamp:
            self._integrator.step(sample)
        pose = self._integrator.state.pose()
        if self.obs is not None:
            # How far the fast path has coasted from its last VIO anchor
            # (grows unboundedly when VIO is quarantined).
            self.obs.annotate(
                anchor_age=max(sample.timestamp - self._anchor_timestamp, 0.0)
                if self._anchor_timestamp >= 0
                else math.inf,
                vio_down=self._vio_down,
            )
        result.publish("fast_pose", pose, data_time=sample.timestamp)
        return result
