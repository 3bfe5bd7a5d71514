"""Visual-pipeline plugins: the application and asynchronous reprojection.

In the integrated (timing) runs these plugins carry *poses*, not pixels:
collecting post-reprojection images live "incurs too much overhead and
perturbs the run" (§III-E), so -- exactly as the paper does -- the images
are re-rendered offline from the logged poses by
:mod:`repro.metrics.qoe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import SystemConfig
from repro.core.plugin import InvocationContext, IterationResult, OnVsync, Periodic, Plugin
from repro.core.records import InvocationRecord
from repro.maths.se3 import Pose, extrapolate_pose
from repro.metrics.mtp import MtpSample
from repro.resilience.supervisor import SUPERVISION_TOPIC, SupervisionEvent
from repro.visual.renderer import Renderer
from repro.visual.scenes import Scene


@dataclass(frozen=True)
class SubmittedFrame:
    """What the application hands the compositor: a frame + its pose."""

    pose: Pose           # the (stale) pose the frame was rendered with
    render_start: float  # virtual time rendering began
    complexity: float


@dataclass(frozen=True)
class DisplayEvent:
    """One displayed frame's provenance, for offline image-quality replay."""

    submit_time: float   # when the buffer was accepted (vsync)
    frame_pose: Pose     # pose the application rendered with
    warp_pose: Pose      # pose reprojection corrected to
    imu_age: float


def display_cost_scale(config: SystemConfig, fov_exponent: float = 1.0) -> float:
    """Cost multiplier for non-default display settings.

    1.0 at the Table III defaults (2K, 90 deg FoV); rendering and
    reprojection cost grow ~linearly with pixels and with the solid angle
    the FoV sweeps.
    """
    from repro.core.config import RESOLUTIONS

    baseline_pixels = RESOLUTIONS["2K"][0] * RESOLUTIONS["2K"][1]
    pixel_ratio = config.display_pixels / baseline_pixels
    fov_ratio = config.field_of_view_deg / 90.0
    return float(pixel_ratio**0.9 * fov_ratio**fov_exponent)


class ApplicationPlugin(Plugin):
    """The game engine: renders frames against the freshest pose.

    Reads ``fast_pose`` asynchronously, "renders" (charges the per-app cost
    scaled by view-dependent complexity), and submits the frame.
    """

    name = "application"
    component = "application"
    pipeline = "application"

    def __init__(self, config: SystemConfig, scene: Scene) -> None:
        super().__init__(Periodic(config.vsync_period))
        self.config = config
        self.scene = scene
        self.renderer = Renderer(scene)
        self._complexity_ema: Optional[float] = None
        # Display knobs are load-bearing (§IV-A1: larger displays and
        # FoVs further stress the system): render cost scales with the
        # pixel count (near-linearly; GPU-bound) and the field of view.
        self._static_scale = display_cost_scale(config)

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        latest = self.switchboard.topic("fast_pose").get_latest() if self.switchboard else None
        if latest is None or latest.data is None:
            result.skipped = True
            return result
        pose: Pose = latest.data
        raw = self.renderer.view_complexity(pose)
        # Self-normalizing: divide by a running mean so the cost model's
        # calibrated mean stays put while per-view variation remains.
        if self._complexity_ema is None:
            self._complexity_ema = raw
        else:
            self._complexity_ema = 0.98 * self._complexity_ema + 0.02 * raw
        complexity = float(np.clip(raw / max(self._complexity_ema, 1e-6), 0.5, 2.0))
        complexity *= self._static_scale
        result.complexity = complexity
        result.publish(
            "frame",
            SubmittedFrame(pose=pose, render_start=ctx.now, complexity=complexity),
            data_time=latest.effective_data_time,
        )
        return result


class TimewarpPlugin(Plugin):
    """Asynchronous reprojection, scheduled as late as possible (fn. 5).

    Reads the latest submitted frame and the freshest pose, reprojects,
    and records the per-frame motion-to-photon sample:
    ``mtp = t_imu_age + t_reprojection + t_swap`` (§III-E).
    """

    name = "timewarp"
    component = "timewarp"
    pipeline = "visual"
    # Compositor runs in a high-priority GPU context (lower = higher).
    gpu_priority = -1

    def __init__(self, config: SystemConfig, lead: float) -> None:
        super().__init__(OnVsync(config.vsync_period, lead))
        self.config = config
        self.mtp_samples: List[MtpSample] = []
        self.display_events: List[DisplayEvent] = []
        self._pending: Optional[dict] = None
        # Degradation accounting: frames where reprojection covered for a
        # missing/stalled renderer by re-warping a stale submission.
        self.stale_frame_count = 0
        self._announced_stale = False
        # Reprojection is framebuffer-bandwidth bound: cost scales with
        # the display pixel count.
        self._static_scale = display_cost_scale(config, fov_exponent=0.0)

    def _predict_pose(self, pose_topic, latest, horizon: float) -> Pose:
        """Constant-velocity pose prediction over ``horizon`` seconds
        (footnote 3: reproject based on the pose predicted for when the
        frame will actually be displayed)."""
        # Differentiate over a ~10 ms baseline: consecutive 2 ms samples
        # give a velocity estimate whose noise swamps the prediction gain
        # (the misprediction risk footnote 6 warns about).
        previous = pose_topic.get_latest_before(latest.publish_time - 8e-3)
        if previous is None or previous.data is None:
            previous = pose_topic.get_latest_before(latest.publish_time - 1e-9)
        if previous is None or previous.data is None:
            return latest.data
        return extrapolate_pose(
            latest.data,
            latest.effective_data_time,
            previous.data,
            previous.effective_data_time,
            horizon,
        )

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        result = IterationResult()
        assert self.switchboard is not None
        pose_event = self.switchboard.topic("fast_pose").get_latest()
        frame_event = self.switchboard.topic("frame").get_latest()
        if pose_event is None or frame_event is None or pose_event.data is None:
            result.skipped = True
            return result
        frame: SubmittedFrame = frame_event.data
        warp_pose: Pose = pose_event.data
        if self.config.pose_prediction:
            # Predict to the vsync this invocation targets.
            vsync_period = self.trigger.period
            next_vsync = (int(ctx.now / vsync_period) + 1) * vsync_period
            horizon = next_vsync - pose_event.effective_data_time
            warp_pose = self._predict_pose(
                self.switchboard.topic("fast_pose"), pose_event, horizon
            )
        imu_age = max(ctx.now - pose_event.effective_data_time, 0.0)
        # Renderer-miss coverage (the paper's timewarp role): a frame older
        # than two vsync periods means the application missed its slot(s)
        # and this invocation is re-reprojecting the last good frame.
        stale = (ctx.now - frame_event.publish_time) > 2.0 * self.trigger.period
        if stale:
            self.stale_frame_count += 1
            if not self._announced_stale:
                self._announced_stale = True
                result.publish(
                    SUPERVISION_TOPIC,
                    SupervisionEvent(
                        time=ctx.now,
                        plugin=self.name,
                        kind="degraded",
                        detail="re-reprojecting stale frame: renderer missing vsyncs",
                    ),
                )
        self._pending = {
            "imu_age": imu_age,
            "frame_pose": frame.pose,
            "warp_pose": warp_pose,
            "stale": stale,
        }
        result.complexity = self._static_scale
        if self.obs is not None:
            # Annotate the invocation span so exported traces show each
            # frame's pose age and staleness without re-deriving them.
            self.obs.annotate(imu_age=imu_age, stale_frame=stale)
        return result

    def on_complete(self, record: InvocationRecord, swap_time: float) -> None:
        """Scheduler hook: close out the MTP sample at buffer submission."""
        if self._pending is None:
            return
        pending = self._pending
        self._pending = None
        sample = MtpSample(
            frame_time=swap_time,
            imu_age=pending["imu_age"],
            reprojection_time=record.end - record.start,
            swap_wait=max(swap_time - record.end, 0.0),
            stale_frame=pending.get("stale", False),
        )
        self.mtp_samples.append(sample)
        self.display_events.append(
            DisplayEvent(
                submit_time=swap_time,
                frame_pose=pending["frame_pose"],
                warp_pose=pending["warp_pose"],
                imu_age=pending["imu_age"],
            )
        )
