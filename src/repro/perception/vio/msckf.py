"""The top-level MSCKF filter (OpenVINS stand-in).

Orchestrates propagation, stochastic cloning, tracking, triangulation,
MSCKF and SLAM updates, and marginalization -- and *times each task* with
a :class:`~repro.perf.TaskTimer` so the Table VI task breakdown can be
measured directly from this implementation.

Task names follow the paper's Table VI rows:
``feature_detection``, ``feature_matching``, ``feature_initialization``,
``msckf_update``, ``slam_update``, ``marginalization``, ``other``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.maths.se3 import Pose
from repro.perception.vio.state import VioState
from repro.perception.vio.tracker import FeatureTracker, Track
from repro.perception.vio.triangulation import CloneObservation, triangulate
from repro.perception.vio.update import (
    chi2_gate,
    ekf_update,
    feature_jacobians,
    initialize_landmark,
    landmark_jacobians,
    nullspace_project,
)
from repro.perception.vio import propagation
from repro.perf import TaskTimer
from repro.sensors.camera import CameraFrame, CameraIntrinsics
from repro.sensors.imu import ImuNoise, ImuSample

TASK_NAMES = (
    "feature_detection",
    "feature_matching",
    "feature_initialization",
    "msckf_update",
    "slam_update",
    "marginalization",
    "other",
)


@dataclass(frozen=True)
class MsckfConfig:
    """Filter tuning knobs.

    The two presets realize the §V.E accuracy/performance trade-off the
    paper describes ("number of tracked points, SLAM features, etc."):
    ``standard`` tracks fewer points, ``high_accuracy`` roughly doubles
    the visual workload for lower drift.
    """

    max_clones: int = 11
    max_features: int = 40
    max_slam_landmarks: int = 8
    slam_promotion_length: int = 8
    slam_stale_frames: int = 10
    min_update_track_length: int = 2
    max_msckf_features_per_update: int = 20
    max_triangulation_error_px: float = 4.0
    pixel_sigma: float = 1.0
    noise: ImuNoise = field(default_factory=ImuNoise)

    def __post_init__(self) -> None:
        if self.max_clones < 3:
            raise ValueError(f"max_clones must be >= 3: {self.max_clones}")
        if self.slam_promotion_length > self.max_clones:
            raise ValueError("slam_promotion_length cannot exceed max_clones")

    @staticmethod
    def standard() -> "MsckfConfig":
        """The paper's lower-accuracy / cheaper setting."""
        return MsckfConfig(max_features=24, max_slam_landmarks=6)

    @staticmethod
    def high_accuracy() -> "MsckfConfig":
        """The paper's higher-accuracy / ~1.5x-cost setting."""
        return MsckfConfig(max_features=40, max_slam_landmarks=10, max_msckf_features_per_update=28)


@dataclass(frozen=True)
class VioEstimate:
    """The filter output published on the slow-pose stream."""

    timestamp: float
    pose: Pose
    velocity: np.ndarray
    gyro_bias: np.ndarray
    accel_bias: np.ndarray
    position_sigma: float
    tracked_features: int
    slam_landmarks: int


class Msckf:
    """Stereo MSCKF visual-inertial odometry."""

    def __init__(
        self,
        config: MsckfConfig,
        intrinsics: CameraIntrinsics,
        baseline_m: float,
        initial_pose: Pose,
        initial_velocity: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config
        self.intrinsics = intrinsics
        self.baseline_m = baseline_m
        # Body (x fwd, y left, z up) -> camera (x right, y down, z fwd);
        # must match the sensor rig's convention.
        self.r_cam_body = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        self.state = VioState(
            timestamp=initial_pose.timestamp,
            orientation=initial_pose.orientation.copy(),
            position=initial_pose.position.copy(),
            velocity=np.zeros(3) if initial_velocity is None else np.asarray(initial_velocity, dtype=float),
        )
        self.tracker = FeatureTracker(config.max_features)
        self._timer = TaskTimer("msckf", TASK_NAMES)
        self._slam_last_seen: Dict[int, int] = {}
        self._retired_slam_ids: set[int] = set()
        self._frame_count = 0

    # ------------------------------------------------------------------

    def task_breakdown(self) -> Dict[str, float]:
        """Accumulated seconds per task (Table VI measurement)."""
        return dict(self._timer.times)

    # ------------------------------------------------------------------

    def process_imu(self, sample: ImuSample) -> None:
        """Propagate the filter through one IMU sample."""
        with self._timer("other"):
            propagation.propagate(self.state, sample, self.config.noise)

    def process_frame(self, frame: CameraFrame) -> VioEstimate:
        """Run one full visual update; returns the new estimate."""
        state = self.state
        config = self.config
        self._frame_count += 1

        with self._timer("other"):
            clone = state.augment_clone()

        with self._timer("feature_matching"):
            _, lost_tracks = self.tracker.match(frame, clone.clone_id)

        with self._timer("feature_detection"):
            excluded = set(state.landmarks) | self._retired_slam_ids
            self.tracker.detect(frame, clone.clone_id, exclude=excluded)

        # Select tracks to spend on the MSCKF update: retired tracks plus
        # tracks whose window is saturated.
        update_candidates: List[Track] = [
            t for t in lost_tracks if t.length >= config.min_update_track_length
        ]
        saturated = [
            feature_id
            for feature_id, track in self.tracker.active.items()
            if track.length >= config.max_clones
        ]
        for feature_id in saturated:
            update_candidates.append(self.tracker.pop(feature_id))
        update_candidates = update_candidates[: config.max_msckf_features_per_update]

        # SLAM promotion candidates: long, still-active tracks.
        promotions: List[Track] = []
        if len(state.landmarks) < config.max_slam_landmarks:
            for feature_id, track in list(self.tracker.active.items()):
                if track.length >= config.slam_promotion_length:
                    promotions.append(self.tracker.pop(feature_id))
                    if len(state.landmarks) + len(promotions) >= config.max_slam_landmarks:
                        break

        # Triangulate both candidate sets (feature initialization).
        with self._timer("feature_initialization"):
            triangulated = {}
            for track in update_candidates + promotions:
                result = self._triangulate_track(track)
                if result is not None and result.mean_reprojection_px <= config.max_triangulation_error_px:
                    triangulated[track.feature_id] = result

        # MSCKF update: stack nullspace-projected constraints.
        with self._timer("msckf_update"):
            stacked_r: List[np.ndarray] = []
            stacked_h: List[np.ndarray] = []
            for track in update_candidates:
                result = triangulated.get(track.feature_id)
                if result is None:
                    continue
                jac = feature_jacobians(
                    state, track, result.position, self.intrinsics, self.baseline_m, self.r_cam_body
                )
                if jac is None:
                    continue
                residual, h_x, h_f = jac
                projected = nullspace_project(residual, h_x, h_f)
                if projected is None:
                    continue
                r0, h0 = projected
                if not chi2_gate(r0, h0, state.covariance, config.pixel_sigma):
                    continue
                stacked_r.append(r0)
                stacked_h.append(h0)
            if stacked_r:
                ekf_update(state, np.concatenate(stacked_r), np.vstack(stacked_h), config.pixel_sigma)

        # SLAM: delayed initialization of promoted tracks, then updates of
        # existing landmarks observed this frame.
        with self._timer("feature_initialization"):
            for track in promotions:
                result = triangulated.get(track.feature_id)
                if result is None:
                    self._retired_slam_ids.add(track.feature_id)
                    continue
                jac = feature_jacobians(
                    state, track, result.position, self.intrinsics, self.baseline_m, self.r_cam_body
                )
                if jac is None:
                    self._retired_slam_ids.add(track.feature_id)
                    continue
                residual, h_x, h_f = jac
                if initialize_landmark(
                    state, track.feature_id, result.position, residual, h_x, h_f, config.pixel_sigma
                ):
                    self._slam_last_seen[track.feature_id] = self._frame_count
                else:
                    self._retired_slam_ids.add(track.feature_id)

        with self._timer("slam_update"):
            slam_r: List[np.ndarray] = []
            slam_h: List[np.ndarray] = []
            for feature_id in state.landmark_ids():
                obs = frame.observations.get(feature_id)
                if obs is None:
                    continue
                u_l, v_l, u_r, v_r = obs
                jac = landmark_jacobians(
                    state,
                    feature_id,
                    clone.clone_id,
                    np.array([u_l, v_l]),
                    np.array([u_r, v_r]),
                    self.intrinsics,
                    self.baseline_m,
                    self.r_cam_body,
                )
                if jac is None:
                    continue
                residual, h = jac
                if not chi2_gate(residual, h, state.covariance, config.pixel_sigma):
                    continue
                slam_r.append(residual)
                slam_h.append(h)
                self._slam_last_seen[feature_id] = self._frame_count
            if slam_r:
                ekf_update(state, np.concatenate(slam_r), np.vstack(slam_h), config.pixel_sigma)

        # Marginalization: bound the clone window, prune stale landmarks.
        with self._timer("marginalization"):
            while len(state.clones) > config.max_clones:
                oldest = state.clones[0].clone_id
                state.marginalize_clone(oldest)
                self.tracker.drop_clone(oldest)
            for feature_id in list(state.landmarks):
                last_seen = self._slam_last_seen.get(feature_id, 0)
                if self._frame_count - last_seen > config.slam_stale_frames:
                    state.remove_landmark(feature_id)
                    self._slam_last_seen.pop(feature_id, None)
                    self._retired_slam_ids.add(feature_id)

        return self.estimate()

    # ------------------------------------------------------------------

    def _triangulate_track(self, track: Track):
        window = {c.clone_id: c for c in self.state.clones}
        observations = [
            CloneObservation(
                orientation=window[clone_id].orientation,
                position=window[clone_id].position,
                uv_left=uv_l,
                uv_right=uv_r,
            )
            for clone_id, (uv_l, uv_r) in sorted(track.observations.items())
            if clone_id in window
        ]
        if not observations:
            return None
        return triangulate(
            observations,
            self.intrinsics,
            self.baseline_m,
            self.r_cam_body,
            pixel_sigma=self.config.pixel_sigma,
        )

    def estimate(self) -> VioEstimate:
        """Snapshot the current filter output."""
        state = self.state
        position_var = np.diag(state.covariance)[3:6]
        return VioEstimate(
            timestamp=state.timestamp,
            pose=state.pose(),
            velocity=state.velocity.copy(),
            gyro_bias=state.gyro_bias.copy(),
            accel_bias=state.accel_bias.copy(),
            position_sigma=float(np.sqrt(np.maximum(position_var, 0.0).sum())),
            tracked_features=len(self.tracker.active),
            slam_landmarks=len(state.landmarks),
        )
