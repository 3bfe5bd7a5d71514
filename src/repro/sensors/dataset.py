"""Offline datasets: record once, replay anywhere (§II-B of the paper).

"ILLIXR's offline camera+IMU component reads from a pre-recorded dataset
and publishes to the same output stream as a live camera+IMU component,
appearing indistinguishable from a real camera/IMU to the rest of the
system."  :func:`make_vicon_room_dataset` synthesizes the stand-in for
EuRoC *Vicon Room 1 Medium* used by the VIO and image-quality experiments,
and :meth:`OfflineDataset.replay` is the offline VIO run over it.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.maths.se3 import Pose
from repro.maths.splines import TrajectorySpline
from repro.sensors.camera import CameraFrame, LandmarkField, StereoCamera
from repro.sensors.imu import ImuModel, ImuSample
from repro.sensors.trajectory import vicon_room_trajectory


@dataclass
class OfflineDataset:
    """A pre-recorded sensor sequence plus its ground truth."""

    name: str
    trajectory: TrajectorySpline
    camera: StereoCamera
    imu_samples: List[ImuSample]
    camera_frames: List[CameraFrame]

    def __post_init__(self) -> None:
        self._imu_times = [s.timestamp for s in self.imu_samples]
        self._frame_times = [f.timestamp for f in self.camera_frames]

    @property
    def duration(self) -> float:
        """Length of the recorded sequence (seconds)."""
        return self.trajectory.duration

    def ground_truth(self, t: float) -> Pose:
        """The true head pose at time ``t``."""
        return self.trajectory.pose(t)

    def imu_between(self, t_start: float, t_end: float) -> List[ImuSample]:
        """IMU samples with timestamps in ``(t_start, t_end]``."""
        lo = bisect.bisect_right(self._imu_times, t_start)
        hi = bisect.bisect_right(self._imu_times, t_end)
        return self.imu_samples[lo:hi]

    def frames_between(self, t_start: float, t_end: float) -> List[CameraFrame]:
        """Camera frames with timestamps in ``(t_start, t_end]``."""
        lo = bisect.bisect_right(self._frame_times, t_start)
        hi = bisect.bisect_right(self._frame_times, t_end)
        return self.camera_frames[lo:hi]

    def start_vio(self, filter_class, config):
        """A VIO filter (``Msckf`` or a subclass) at the recording's first
        pose and velocity."""
        return filter_class.at(config, self.camera, self.trajectory, 0.0)

    def replay(self, vio) -> Iterator[Tuple[float, float]]:
        """Run ``vio`` over the recording, one frame per step.

        Before each frame the filter gets the IMU samples in
        ``(t_previous_frame, t_frame]``, in order.  Each step yields the
        frame's position error against ground truth (m) and the host
        seconds ``process_frame`` took.  Zipping two replays runs their
        filters in lockstep, frame by frame.
        """
        t_last = 0.0
        for frame in self.camera_frames:
            for sample in self.imu_between(t_last, frame.timestamp):
                vio.process_imu(sample)
            t_last = frame.timestamp
            start = time.perf_counter()
            estimate = vio.process_frame(frame)
            seconds = time.perf_counter() - start
            yield estimate.pose.translation_error(self.ground_truth(frame.timestamp)), seconds


def make_vicon_room_dataset(
    duration: float = 30.0,
    seed: int = 1,
    camera_rate_hz: float = 15.0,
    imu_rate_hz: float = 500.0,
    max_features: int = 80,
    exposure_ms: float = 1.0,
) -> OfflineDataset:
    """Synthesize the EuRoC-like offline dataset (camera + IMU + truth)."""
    trajectory = vicon_room_trajectory(duration=duration + 1.0, seed=seed)
    landmarks = LandmarkField(seed=seed + 100)
    camera = StereoCamera(
        landmarks=landmarks,
        max_features=max_features,
        exposure_ms=exposure_ms,
        seed=seed + 200,
    )
    imu = ImuModel(trajectory, rate_hz=imu_rate_hz, seed=seed + 300)
    imu_samples = imu.sequence(0.0, duration)
    camera_period = 1.0 / camera_rate_hz
    camera_frames = []
    t = 0.0
    while t < duration:
        camera_frames.append(camera.observe(trajectory.pose(t), timestamp=t))
        t += camera_period
    return OfflineDataset(
        name="vicon_room_1_medium_synthetic",
        trajectory=trajectory,
        camera=camera,
        imu_samples=imu_samples,
        camera_frames=camera_frames,
    )
