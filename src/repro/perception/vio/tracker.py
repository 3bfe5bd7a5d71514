"""Feature tracking front-end.

A real front-end (KLT over FAST corners in OpenVINS) detects features and
matches them across frames.  Our synthetic camera already associates
observations by landmark id, so the tracker's job is bookkeeping with the
same semantics: maintain a budget of active tracks, extend tracks that
re-appear (*feature matching*), adopt new ids when below budget (*feature
detection*), and retire tracks that vanish (these feed the MSCKF update).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.sensors.camera import CameraFrame


@dataclass
class Track:
    """Observation history of one feature across the clone window.

    ``observations`` maps clone_id -> (uv_left, uv_right).
    """

    feature_id: int
    observations: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Number of clones this feature was observed from."""
        return len(self.observations)

    def add(self, clone_id: int, uv_left: np.ndarray, uv_right: np.ndarray) -> None:
        """Record the observation made at ``clone_id``."""
        self.observations[clone_id] = (
            np.asarray(uv_left, dtype=float),
            np.asarray(uv_right, dtype=float),
        )

    def drop_clone(self, clone_id: int) -> None:
        """Forget the observation from a marginalized clone."""
        self.observations.pop(clone_id, None)


class FeatureTracker:
    """Budgeted track table over the synthetic camera's feature ids."""

    def __init__(self, max_features: int) -> None:
        if max_features < 4:
            raise ValueError(f"max_features must be >= 4: {max_features}")
        self.max_features = max_features
        self.active: Dict[int, Track] = {}

    def match(self, frame: CameraFrame, clone_id: int) -> Tuple[int, List[Track]]:
        """Extend active tracks that re-appear; retire those that vanished.

        Returns (number matched, retired tracks).  Retired tracks feed the
        MSCKF update.
        """
        seen = frame.observations
        matched = 0
        lost: List[Track] = []
        for feature_id in list(self.active):
            if feature_id in seen:
                u_l, v_l, u_r, v_r = seen[feature_id]
                self.active[feature_id].add(clone_id, np.array([u_l, v_l]), np.array([u_r, v_r]))
                matched += 1
            else:
                lost.append(self.active.pop(feature_id))
        return matched, lost

    def detect(
        self, frame: CameraFrame, clone_id: int, exclude: set[int] = frozenset()
    ) -> int:
        """Adopt new feature ids up to the budget; returns the count adopted.

        ``exclude`` holds ids owned elsewhere (e.g. promoted SLAM
        landmarks) that must not be re-adopted as short tracks.
        """
        detected = 0
        for feature_id, (u_l, v_l, u_r, v_r) in frame.observations.items():
            if len(self.active) >= self.max_features:
                break
            if feature_id in self.active or feature_id in exclude:
                continue
            track = Track(feature_id)
            track.add(clone_id, np.array([u_l, v_l]), np.array([u_r, v_r]))
            self.active[feature_id] = track
            detected += 1
        return detected

    def pop(self, feature_id: int) -> Track:
        """Remove and return an active track (e.g. when spent on an update)."""
        return self.active.pop(feature_id)

    def drop_clone(self, clone_id: int) -> None:
        """Forget a marginalized clone's observations in every track."""
        for track in self.active.values():
            track.drop_clone(clone_id)
