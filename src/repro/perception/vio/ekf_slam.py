"""EKF-SLAM visual-inertial odometry: the alternative implementation slot.

Table II lists two interchangeable VIO implementations (OpenVINS*,
Kimera-VIO).  This module fills the second slot with a structurally
different filter: **no clone window and no nullspace projection** --
every tracked feature becomes a SLAM landmark in the state, updated
directly on every observation (classic EKF-SLAM with delayed landmark
initialization).

Compared to the MSCKF this trades:

- memory/compute: state grows with the landmark budget, updates are
  O(landmarks^2) instead of O(window^2);
- accuracy: landmarks persist, so loopy trajectories drift less, but
  linearization errors accumulate in long-lived landmarks.

It reuses the MSCKF's propagation, triangulation, and update machinery --
which is exactly why the runtime treats the two as drop-in alternatives.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.maths.se3 import Pose
from repro.perception.vio.msckf import MsckfConfig, VioEstimate
from repro.perception.vio.state import VioState
from repro.perception.vio.tracker import FeatureTracker
from repro.perception.vio.triangulation import CloneObservation, triangulate
from repro.perception.vio.update import (
    chi2_gate,
    ekf_update,
    feature_jacobians,
    initialize_landmark,
    landmark_jacobians,
)
from repro.perception.vio import propagation
from repro.perf import TaskTimer
from repro.sensors.camera import CameraFrame, CameraIntrinsics
from repro.sensors.imu import ImuSample

TASK_NAMES = (
    "feature_detection",
    "feature_matching",
    "landmark_initialization",
    "slam_update",
    "map_management",
    "other",
)


class EkfSlamVio:
    """Stereo EKF-SLAM odometry (the Kimera-VIO slot of Table II).

    Exposes the same ``process_imu`` / ``process_frame`` / ``estimate``
    interface as :class:`~repro.perception.vio.msckf.Msckf`, so either can
    back the VIO plugin.
    """

    def __init__(
        self,
        config: MsckfConfig,
        intrinsics: CameraIntrinsics,
        baseline_m: float,
        initial_pose: Pose,
        initial_velocity: Optional[np.ndarray] = None,
        init_track_length: int = 3,
    ) -> None:
        self.config = config
        self.intrinsics = intrinsics
        self.baseline_m = baseline_m
        self.init_track_length = init_track_length
        self.r_cam_body = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        self.state = VioState(
            timestamp=initial_pose.timestamp,
            orientation=initial_pose.orientation.copy(),
            position=initial_pose.position.copy(),
            velocity=(
                np.zeros(3) if initial_velocity is None else np.asarray(initial_velocity, dtype=float)
            ),
        )
        self.tracker = FeatureTracker(config.max_features)
        self._timer = TaskTimer("ekf_slam", TASK_NAMES)
        self._landmark_last_seen: Dict[int, int] = {}
        # Track observations die with the per-frame transient clone, so
        # track maturity is counted separately.
        self._track_age: Dict[int, int] = {}
        self._frame_count = 0

    def task_breakdown(self) -> Dict[str, float]:
        """Accumulated seconds per task."""
        return dict(self._timer.times)

    # ------------------------------------------------------------------

    def process_imu(self, sample: ImuSample) -> None:
        """Propagate the filter through one IMU sample."""
        with self._timer("other"):
            propagation.propagate(self.state, sample, self.config.noise)

    def process_frame(self, frame: CameraFrame) -> VioEstimate:
        """One visual update: SLAM updates + delayed initializations."""
        state = self.state
        config = self.config
        self._frame_count += 1

        # A single transient clone anchors this frame's observations
        # (EKF-SLAM needs the current camera pose in the error state).
        with self._timer("other"):
            clone = state.augment_clone()

        with self._timer("feature_matching"):
            _, lost = self.tracker.match(frame, clone.clone_id)
            for track in lost:
                self._track_age.pop(track.feature_id, None)
            for feature_id in self.tracker.active:
                self._track_age[feature_id] = self._track_age.get(feature_id, 0) + 1

        with self._timer("feature_detection"):
            self.tracker.detect(frame, clone.clone_id, exclude=set(state.landmarks))
            for feature_id in self.tracker.active:
                self._track_age.setdefault(feature_id, 1)

        # SLAM update: every in-state landmark observed this frame.
        with self._timer("slam_update"):
            stacked_r: List[np.ndarray] = []
            stacked_h: List[np.ndarray] = []
            for feature_id in state.landmark_ids():
                observation = frame.observations.get(feature_id)
                if observation is None:
                    continue
                u_l, v_l, u_r, v_r = observation
                jac = landmark_jacobians(
                    state, feature_id, clone.clone_id,
                    np.array([u_l, v_l]), np.array([u_r, v_r]),
                    self.intrinsics, self.baseline_m, self.r_cam_body,
                )
                if jac is None:
                    continue
                residual, h = jac
                if not chi2_gate(residual, h, state.covariance, config.pixel_sigma):
                    continue
                stacked_r.append(residual)
                stacked_h.append(h)
                self._landmark_last_seen[feature_id] = self._frame_count
            if stacked_r:
                ekf_update(
                    state, np.concatenate(stacked_r), np.vstack(stacked_h), config.pixel_sigma
                )

        # Delayed initialization: tracks long enough to triangulate become
        # landmarks (up to the budget).
        with self._timer("landmark_initialization"):
            budget = config.max_slam_landmarks * 3  # EKF-SLAM carries more
            candidates = [
                feature_id
                for feature_id in list(self.tracker.active)
                if self._track_age.get(feature_id, 0) >= self.init_track_length
                and feature_id in frame.observations
            ]
            for feature_id in candidates:
                if len(state.landmarks) >= budget:
                    break
                track = self.tracker.pop(feature_id)
                result = self._triangulate(track)
                if result is None or result.mean_reprojection_px > config.max_triangulation_error_px:
                    continue
                jac = feature_jacobians(
                    state, track, result.position, self.intrinsics, self.baseline_m, self.r_cam_body
                )
                if jac is None:
                    continue
                residual, h_x, h_f = jac
                if initialize_landmark(
                    state, feature_id, result.position, residual, h_x, h_f, config.pixel_sigma
                ):
                    self._landmark_last_seen[feature_id] = self._frame_count
                self._track_age.pop(feature_id, None)

        # Map management: retire stale landmarks, drop the transient clone.
        with self._timer("map_management"):
            for feature_id in list(state.landmarks):
                if self._frame_count - self._landmark_last_seen.get(feature_id, 0) > config.slam_stale_frames:
                    state.remove_landmark(feature_id)
                    self._landmark_last_seen.pop(feature_id, None)
            state.marginalize_clone(clone.clone_id)
            self.tracker.drop_clone(clone.clone_id)

        return self.estimate()

    # ------------------------------------------------------------------

    def _triangulate(self, track):
        window = {c.clone_id: c for c in self.state.clones}
        observations = [
            CloneObservation(
                orientation=window[cid].orientation,
                position=window[cid].position,
                uv_left=uv_l,
                uv_right=uv_r,
            )
            for cid, (uv_l, uv_r) in sorted(track.observations.items())
            if cid in window
        ]
        # Transient clones vanish each frame, so usually only the newest
        # observation survives -- stereo triangulation handles it.
        if not observations:
            return None
        return triangulate(
            observations, self.intrinsics, self.baseline_m, self.r_cam_body,
            pixel_sigma=self.config.pixel_sigma,
        )

    def estimate(self) -> VioEstimate:
        """Snapshot the current filter output (same type as the MSCKF)."""
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
