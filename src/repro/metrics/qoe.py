"""Offline image-quality evaluation (§III-E of the paper).

Collecting post-reprojection images live perturbs the run, so the paper
logs application images and poses, applies reprojection *offline*, and
compares against an idealized configuration that received ground-truth
poses.  This module does exactly that against a completed
:class:`~repro.core.runtime.RuntimeResult`:

- **actual**: render the scene with the pose the (VIO -> integrator)
  pipeline gave the application, then reproject with the pose timewarp
  actually used;
- **ideal**: render with the ground-truth pose of the same instant, then
  reproject with the ground-truth pose at the submission instant.

SSIM and 1-FLIP between the two reprojected images quantify everything
the user would see go wrong: VIO drift, pose staleness from missed
deadlines, and reprojection artifacts (Table V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.runtime import RuntimeResult
from repro.metrics.flip import one_minus_flip
from repro.metrics.ssim import ssim
from repro.visual.renderer import RenderCamera, Renderer
from repro.visual.reprojection import rotational_reproject, translational_reproject
from repro.visual.scenes import scene_by_name


@dataclass(frozen=True)
class ImageQualityResult:
    """Mean +- std image quality over the replayed frames (Table V row)."""

    ssim_mean: float
    ssim_std: float
    one_minus_flip_mean: float
    one_minus_flip_std: float
    frames: int

    def row(self) -> str:
        """A printable Table V style row."""
        return (
            f"SSIM {self.ssim_mean:.2f}+-{self.ssim_std:.2f}  "
            f"1-FLIP {self.one_minus_flip_mean:.2f}+-{self.one_minus_flip_std:.2f}"
        )


def evaluate_image_quality(
    result: RuntimeResult,
    max_frames: int = 30,
    camera: Optional[RenderCamera] = None,
    translational: bool = False,
    skip_initial_s: float = 0.5,
) -> ImageQualityResult:
    """Replay display events offline and compute SSIM / 1-FLIP."""
    if max_frames < 1:
        raise ValueError("max_frames must be >= 1")
    camera = camera or RenderCamera(width=192, height=108)
    scene = scene_by_name(result.app_name)
    renderer = Renderer(scene, camera)
    k = camera.intrinsic_matrix()

    events = [e for e in result.display_events if e.submit_time >= skip_initial_s]
    if not events:
        raise ValueError("run produced no display events to evaluate")
    stride = max(1, len(events) // max_frames)
    ssims: List[float] = []
    flips: List[float] = []
    for event in events[::stride][:max_frames]:
        frame_time = event.frame_pose.timestamp
        gt_frame_pose = result.ground_truth(frame_time)
        gt_warp_pose = result.ground_truth(event.submit_time)

        actual_render = renderer.render(event.frame_pose)
        ideal_render = renderer.render(gt_frame_pose)
        if translational:
            actual = translational_reproject(
                actual_render.image, actual_render.depth, k, event.frame_pose, event.warp_pose
            )
            ideal = translational_reproject(
                ideal_render.image, ideal_render.depth, k, gt_frame_pose, gt_warp_pose
            )
        else:
            actual = rotational_reproject(actual_render.image, k, event.frame_pose, event.warp_pose)
            ideal = rotational_reproject(ideal_render.image, k, gt_frame_pose, gt_warp_pose)
        ssims.append(ssim(ideal, actual))
        flips.append(one_minus_flip(ideal, actual))
    return ImageQualityResult(
        ssim_mean=float(np.mean(ssims)),
        ssim_std=float(np.std(ssims)),
        one_minus_flip_mean=float(np.mean(flips)),
        one_minus_flip_std=float(np.std(flips)),
        frames=len(ssims),
    )


def audio_bitrate_kbps(channels: int = 16, sample_rate_hz: int = 48000, bits: int = 32) -> float:
    """The audio pipeline's raw soundfield bitrate (the paper's only audio
    quality metric, §II-C)."""
    return channels * sample_rate_hz * bits / 1000.0


def pose_error_series(
    result: RuntimeResult,
) -> Tuple[np.ndarray, np.ndarray]:
    """(publish times, translation errors) of the VIO estimates against truth."""
    times = np.array([t for t, _ in result.vio_trajectory])
    return times, np.array(result.vio_errors())
