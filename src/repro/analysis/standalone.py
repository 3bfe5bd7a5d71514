"""Standalone component characterization (§IV-B, "ILLIXR v1").

Each component runs by itself on its component-specific dataset stand-in
(Vicon Room for VIO, dyson_lab-like depth for reconstruction, OpenEDS-like
eye images, VR-Museum-like rendered frames for reprojection/hologram,
48 kHz clips for audio) and reports its per-task time breakdown -- the
measured equivalents of Tables VI and VII.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np


@dataclass
class TaskBreakdown:
    """Per-task share of one component's standalone run."""

    component: str
    task_seconds: Dict[str, float]
    frames: int
    mean_frame_ms: float
    extras: Dict[str, float]

    def shares(self) -> Dict[str, float]:
        """Fraction of total per task (a Table VI/VII 'Time' column)."""
        total = sum(self.task_seconds.values())
        if total == 0:
            return {k: 0.0 for k in self.task_seconds}
        return {k: v / total for k, v in self.task_seconds.items()}


def characterize_vio(duration_s: float = 15.0, seed: int = 1, quality: str = "standard") -> TaskBreakdown:
    """VIO on the Vicon-Room-like dataset (Table VI, upper half)."""
    from repro.perception.vio.msckf import Msckf, MsckfConfig
    from repro.sensors.dataset import make_vicon_room_dataset

    dataset = make_vicon_room_dataset(duration=duration_s, seed=seed)
    config = MsckfConfig.high_accuracy() if quality == "high" else MsckfConfig.standard()
    vio = Msckf(
        config,
        dataset.camera.intrinsics,
        dataset.camera.baseline_m,
        dataset.ground_truth(0.0),
        initial_velocity=dataset.trajectory.sample(0.0).velocity,
    )
    t_last = 0.0
    frame_times: List[float] = []
    errors: List[float] = []
    for frame in dataset.camera_frames:
        for sample in dataset.imu_between(t_last, frame.timestamp):
            vio.process_imu(sample)
        t_last = frame.timestamp
        t0 = time.perf_counter()
        estimate = vio.process_frame(frame)
        frame_times.append(time.perf_counter() - t0)
        errors.append(estimate.pose.translation_error(dataset.ground_truth(frame.timestamp)))
    return TaskBreakdown(
        component="vio",
        task_seconds=vio.task_breakdown(),
        frames=len(frame_times),
        mean_frame_ms=float(np.mean(frame_times)) * 1e3,
        extras={
            "ate_cm": float(np.mean(errors)) * 100.0,
            "frame_time_cov": float(np.std(frame_times) / max(np.mean(frame_times), 1e-12)),
        },
    )


#: Frames the reconstruction pose error skips while the volume fills.
_RECONSTRUCTION_WARMUP = 3


def characterize_reconstruction(frames: int = 30, seed: int = 3) -> TaskBreakdown:
    """Scene reconstruction on the dyson_lab-like depth sequence.

    The first ``_RECONSTRUCTION_WARMUP`` frames stay out of
    ``pose_error_cm``, so ``frames`` must exceed it.
    """
    from repro.maths.se3 import Pose
    from repro.perception.reconstruction.pipeline import ReconstructionPipeline
    from repro.sensors.depth import DepthCamera, DepthScene
    from repro.sensors.trajectory import lab_walk_trajectory

    if frames <= _RECONSTRUCTION_WARMUP:
        raise ValueError(
            f"need more than {_RECONSTRUCTION_WARMUP} frames (the warm-up), got {frames}"
        )
    scene = DepthScene.default(seed=seed)
    camera = DepthCamera(scene, width=80, height=60, seed=seed)
    trajectory = lab_walk_trajectory(duration=frames * 0.3 + 2.0, seed=seed)
    pipeline = ReconstructionPipeline(camera)
    rng = np.random.default_rng(seed)
    errors: List[float] = []
    for i in range(frames):
        t = i * 0.3
        sample = trajectory.sample(t)
        truth = Pose(sample.position, sample.orientation, timestamp=t)
        depth = camera.render(truth)
        guess = Pose(truth.position + rng.normal(0.0, 0.03, 3), truth.orientation, timestamp=t)
        result = pipeline.process_frame(depth, guess)
        errors.append(result.pose.translation_error(truth))
    return TaskBreakdown(
        component="scene_reconstruction",
        task_seconds=pipeline.task_breakdown(),
        frames=frames,
        mean_frame_ms=float(np.mean(pipeline.frame_times)) * 1e3,
        extras={
            "pose_error_cm": float(np.mean(errors[_RECONSTRUCTION_WARMUP:])) * 100.0,
            "occupied_fraction": pipeline.volume.occupied_fraction,
            "frame_time_growth": float(
                np.mean(pipeline.frame_times[-5:]) / max(np.mean(pipeline.frame_times[:5]), 1e-12)
            ),
        },
    )


def characterize_eye_tracking(
    train_steps: int = 100, eval_samples: int = 24, seed: int = 0
) -> TaskBreakdown:
    """Eye tracking on the OpenEDS-like generator."""
    from repro.perception.eye_tracking import EyeTracker
    from repro.sensors.eye import EyeImageGenerator

    tracker = EyeTracker(seed=seed)
    tracker.train(EyeImageGenerator(seed=seed), steps=train_steps)
    generator = EyeImageGenerator(seed=seed + 1000)
    samples = generator.batch(eval_samples)
    frame_times: List[float] = []
    for i in range(0, len(samples) - 1, 2):
        pair = np.stack([samples[i].image, samples[i + 1].image])
        t0 = time.perf_counter()
        tracker.predict(pair)  # batch of two: one image per eye
        frame_times.append(time.perf_counter() - t0)
    quality = tracker.evaluate(samples)
    return TaskBreakdown(
        component="eye_tracking",
        task_seconds=tracker.task_breakdown(),
        frames=len(frame_times),
        mean_frame_ms=float(np.mean(frame_times)) * 1e3,
        extras={
            "mean_iou": quality["mean_iou"],
            "mean_gaze_error": quality["mean_gaze_error"],
            "weight_kb": tracker.weight_bytes() / 1024.0,
        },
    )


def characterize_reprojection(frames: int = 24, seed: int = 0) -> TaskBreakdown:
    """Reprojection on VR-Museum-like rendered frames (Table VII rows).

    Stage accounting mirrors Table VII: ``fbo`` (target management),
    ``opengl_state`` (per-eye warp setup: homography/mesh computation --
    the driver-call stand-in), ``reprojection`` (the actual resampling).
    """
    from repro.maths.quaternion import quat_from_axis_angle, quat_multiply
    from repro.maths.se3 import Pose
    from repro.perf import TaskTimer
    from repro.visual.distortion import apply_lens_correction, mesh_warp_coordinates
    from repro.visual.renderer import RenderCamera, Renderer
    from repro.visual.reprojection import rotational_reproject
    from repro.visual.scenes import scene_by_name

    camera = RenderCamera(width=192, height=108)
    renderer = Renderer(scene_by_name("sponza"), camera)
    k = camera.intrinsic_matrix()
    rng = np.random.default_rng(seed)
    tasks = TaskTimer("timewarp", ("fbo", "opengl_state", "reprojection"))
    frame_times: List[float] = []
    pose = Pose(np.array([0.0, 0.0, 1.7]))
    rendered = renderer.render(pose)
    for _ in range(frames):
        start = time.perf_counter()
        with tasks("fbo"):
            target = np.zeros_like(rendered.image)  # framebuffer bind + clear
        delta = quat_from_axis_angle(rng.normal(0, 1, 3), rng.uniform(0.005, 0.04))
        display_pose = Pose(
            pose.position + rng.normal(0, 0.01, 3),
            quat_multiply(delta, pose.orientation),
        )
        with tasks("opengl_state"):
            # Per-eye warp setup: distortion meshes (the state/driver work).
            mesh_warp_coordinates(camera.width, camera.height, -0.12, -0.04, mesh_step=16)
            mesh_warp_coordinates(camera.width, camera.height, -0.12, -0.04, mesh_step=16)
        with tasks("reprojection"):
            warped = rotational_reproject(rendered.image, k, pose, display_pose)
            target[:] = apply_lens_correction(warped)
        frame_times.append(time.perf_counter() - start)
    return TaskBreakdown(
        component="timewarp",
        task_seconds=tasks.times,
        frames=frames,
        mean_frame_ms=float(np.mean(frame_times)) * 1e3,
        extras={},
    )


def characterize_hologram(iterations: int = 8, resolution: int = 128, seed: int = 0) -> TaskBreakdown:
    """Hologram generation on a rendered focal stack (Table VII rows)."""
    from repro.maths.se3 import Pose
    from repro.visual.hologram import WeightedGerchbergSaxton, focal_stack_from_frame
    from repro.visual.renderer import RenderCamera, Renderer
    from repro.visual.scenes import scene_by_name

    camera = RenderCamera(width=resolution, height=resolution)
    renderer = Renderer(scene_by_name("sponza"), camera)
    frame = renderer.render(Pose(np.array([0.0, 0.0, 1.7])))
    solver = WeightedGerchbergSaxton(resolution=resolution)
    targets = focal_stack_from_frame(frame.image, frame.depth, solver.depths_m, resolution)
    t0 = time.perf_counter()
    result = solver.solve(targets, iterations=iterations, seed=seed)
    total = time.perf_counter() - t0
    return TaskBreakdown(
        component="hologram",
        task_seconds=result.task_times,
        frames=1,
        mean_frame_ms=total * 1e3,
        extras={"efficiency": result.efficiency, "uniformity": result.uniformity},
    )


def characterize_audio(blocks: int = 96, seed: int = 0) -> Dict[str, TaskBreakdown]:
    """Audio encoding and playback on the Freesound-like clips."""
    from repro.audio.encoding import AudioEncoder
    from repro.audio.playback import AudioPlayback
    from repro.audio.sources import MusicLikeSource, SpeechLikeSource
    from repro.maths.quaternion import quat_from_axis_angle
    from repro.maths.se3 import Pose

    encoder = AudioEncoder([SpeechLikeSource(seed=seed), MusicLikeSource(seed=seed + 1)])
    playback = AudioPlayback()
    encode_times: List[float] = []
    playback_times: List[float] = []
    for i in range(blocks):
        t0 = time.perf_counter()
        soundfield = encoder.encode_next_block()
        encode_times.append(time.perf_counter() - t0)
        yaw = 0.3 * np.sin(i / 10.0)
        pose = Pose(np.zeros(3), quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw))
        t0 = time.perf_counter()
        playback.render_block(soundfield, pose)
        playback_times.append(time.perf_counter() - t0)
    return {
        "audio_encoding": TaskBreakdown(
            component="audio_encoding",
            task_seconds=encoder.task_breakdown(),
            frames=blocks,
            mean_frame_ms=float(np.mean(encode_times)) * 1e3,
            extras={},
        ),
        "audio_playback": TaskBreakdown(
            component="audio_playback",
            task_seconds=playback.task_breakdown(),
            frames=blocks,
            mean_frame_ms=float(np.mean(playback_times)) * 1e3,
            extras={},
        ),
    }
