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

It is an :class:`~repro.perception.vio.msckf.Msckf` with its own frame
step: propagation, boot, triangulation, landmark initialization and
updates, and the estimate are the MSCKF's, which is exactly why the
runtime treats the two as drop-in alternatives.
"""

from __future__ import annotations

from typing import Dict

from repro.perception.vio.msckf import Msckf, VioEstimate
from repro.sensors.camera import CameraFrame

TASK_NAMES = (
    "feature_detection",
    "feature_matching",
    "landmark_initialization",
    "slam_update",
    "map_management",
    "other",
)

#: Frames a track must be seen in before it is triangulated into a landmark.
INIT_TRACK_LENGTH = 3


class EkfSlamVio(Msckf):
    """Stereo EKF-SLAM odometry (the Kimera-VIO slot of Table II)."""

    TASK_NAMES = TASK_NAMES
    COMPONENT = "ekf_slam"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Track observations die with the per-frame transient clone, so
        # track maturity is counted separately.
        self._track_age: Dict[int, int] = {}

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
            self._update_landmarks(frame, clone.clone_id)

        # Delayed initialization: tracks long enough to triangulate become
        # landmarks (up to the budget).
        with self._timer("landmark_initialization"):
            budget = config.max_slam_landmarks * 3  # EKF-SLAM carries more
            candidates = [
                feature_id
                for feature_id in list(self.tracker.active)
                if self._track_age.get(feature_id, 0) >= INIT_TRACK_LENGTH
                and feature_id in frame.observations
            ]
            for feature_id in candidates:
                if len(state.landmarks) >= budget:
                    break
                track = self.tracker.pop(feature_id)
                # Transient clones vanish each frame, so usually only the
                # newest observation survives -- stereo triangulation
                # handles it.
                result = self._triangulate_track(track)
                if result is None or result.mean_reprojection_px > config.max_triangulation_error_px:
                    continue
                if self._initialize_landmark(track, result) is not None:
                    self._track_age.pop(feature_id, None)

        # Map management: retire stale landmarks, drop the transient clone.
        with self._timer("map_management"):
            for feature_id in list(state.landmarks):
                if self._frame_count - self._slam_last_seen.get(feature_id, 0) > config.slam_stale_frames:
                    state.remove_landmark(feature_id)
                    self._slam_last_seen.pop(feature_id, None)
            state.marginalize_clone(clone.clone_id)
            self.tracker.drop_clone(clone.clone_id)

        return self.estimate()
