"""Extended-configuration plugins: eye tracking, scene reconstruction,
holographic display.

The paper's *integrated* runs exclude these three components because
OpenXR (at the time) had no interface through which an application could
consume their outputs (§III-B); they are characterized standalone.  They
are nevertheless full ILLIXR components, and this module wires them into
the runtime to demonstrate the plugin architecture's extensibility --
``build_extended_runtime`` boots a system with all eleven plugins.

To keep integrated runs fast, eye tracking and hologram run their real
algorithms on a stride (every ``EYE_TRACKING_STRIDE``-th and
``HOLOGRAM_STRIDE``-th invocation); scene reconstruction fuses every depth
frame.  Every invocation still charges its modeled platform cost, so the
timing/power picture includes the extended components at full rate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import SystemConfig
from repro.core.plugin import InvocationContext, IterationResult, OnTopic, Periodic, Plugin
from repro.maths.splines import TrajectorySpline
from repro.perception.eye_tracking import EyeTracker
from repro.perception.reconstruction.pipeline import ReconstructionPipeline
from repro.sensors.depth import DepthCamera, DepthScene
from repro.sensors.eye import EyeImageGenerator
from repro.visual.hologram import WeightedGerchbergSaxton

# Rates, problem sizes and real-algorithm strides of the extended components.
DEPTH_RATE_HZ = 5.0
EYE_TRACKING_RATE_HZ = 30.0
EYE_TRACKING_STRIDE = 2
#: Training steps the eye tracker takes at boot (full fidelity only).
EYE_TRACKER_TRAIN_STEPS = 60
HOLOGRAM_RESOLUTION = 64
HOLOGRAM_ITERATIONS = 3
HOLOGRAM_STRIDE = 30


class DepthCameraPlugin(Plugin):
    """Publishes depth frames for scene reconstruction (ZED depth mode)."""

    name = "depth_camera"
    component = "camera"
    pipeline = "perception"

    def __init__(self, config: SystemConfig, trajectory: TrajectorySpline) -> None:
        super().__init__(Periodic(1.0 / DEPTH_RATE_HZ))
        self.config = config
        self.trajectory = trajectory
        self.camera = DepthCamera(DepthScene.default(), width=64, height=48)

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        if self.config.fidelity == "full":
            pose = self.trajectory.pose(ctx.now)
            depth = self.camera.render(pose)
            result.publish("depth", (depth, pose), data_time=ctx.now)
        else:
            result.publish("depth", None, data_time=ctx.now)
        return result


class SceneReconstructionPlugin(Plugin):
    """ElasticFusion stand-in: fuses depth frames into the TSDF map."""

    name = "scene_reconstruction"
    component = "scene_reconstruction"
    pipeline = "perception"

    def __init__(self, config: SystemConfig, camera: DepthCamera) -> None:
        super().__init__(OnTopic("depth"))
        self.config = config
        self.pipeline_impl = ReconstructionPipeline(camera)
        self.frames_fused = 0

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        payload = ctx.trigger_event.data if ctx.trigger_event else None
        if payload is None:
            if self.config.fidelity == "full":
                result.skipped = True
                return result
            result.publish("scene_map", None, data_time=ctx.now)
            return result
        depth, pose_guess = payload
        frame_result = self.pipeline_impl.process_frame(depth, pose_guess)
        self.frames_fused += 1
        result.publish("scene_map", frame_result, data_time=ctx.now)
        # The map grows over time; so does per-frame work (§IV-B1).
        result.complexity = float(
            np.clip(0.7 + 2.0 * frame_result.occupied_fraction, 0.5, 2.0)
        )
        return result


class EyeTrackingPlugin(Plugin):
    """RITnet stand-in: segments per-eye images, publishes gaze."""

    name = "eye_tracking"
    component = "eye_tracking"
    pipeline = "perception"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(Periodic(1.0 / EYE_TRACKING_RATE_HZ))
        self.config = config
        self._generator = EyeImageGenerator(seed=config.seed + 500)
        self.tracker = EyeTracker(seed=config.seed)
        if config.fidelity == "full":
            self.tracker.train(
                EyeImageGenerator(seed=config.seed + 501), steps=EYE_TRACKER_TRAIN_STEPS
            )
        self.predictions = 0

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        if self.config.fidelity != "full" or ctx.index % EYE_TRACKING_STRIDE != 0:
            result.publish("gaze", None, data_time=ctx.now)
            return result
        # One image per eye: batch size two, as the paper notes.
        left = self._generator.sample()
        right = self._generator.sample()
        prediction = self.tracker.predict(np.stack([left.image, right.image]))
        self.predictions += 1
        gaze = prediction.gaze.mean(axis=0)
        result.publish("gaze", gaze, data_time=ctx.now)
        return result


class HologramPlugin(Plugin):
    """Adaptive display: computes the SLM phase for the submitted frame."""

    name = "hologram"
    component = "hologram"
    pipeline = "visual"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(OnTopic("frame"))
        self.config = config
        self.solver = WeightedGerchbergSaxton(resolution=HOLOGRAM_RESOLUTION)
        self.holograms_computed = 0
        self._rng = np.random.default_rng(config.seed + 600)

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        if self.config.fidelity == "full" and ctx.index % HOLOGRAM_STRIDE == 0:
            n = self.solver.resolution
            # Integrated runs carry poses, not pixels; solve against a
            # synthetic focal stack of the right shape.
            targets = [
                np.abs(self._rng.normal(0.0, 1.0, (n, n))) * (self._rng.random((n, n)) > 0.8)
                for _ in self.solver.depths_m
            ]
            solution = self.solver.solve(targets, iterations=HOLOGRAM_ITERATIONS)
            self.holograms_computed += 1
            result.publish("hologram_phase", solution.efficiency, data_time=ctx.now)
        return result


def build_extended_runtime(
    platform,
    app_name: str = "sponza",
    config: Optional[SystemConfig] = None,
):
    """An integrated system with all eleven components (the paper's full
    Fig. 1 workflow), demonstrating plug-in extensibility."""
    from repro.core.runtime import build_runtime

    runtime = build_runtime(platform, app_name, config)
    config = runtime.config
    depth_camera = DepthCameraPlugin(config, runtime.trajectory)
    runtime.plugins += [
        depth_camera,
        SceneReconstructionPlugin(config, depth_camera.camera),
        EyeTrackingPlugin(config),
        HologramPlugin(config),
    ]
    return runtime
