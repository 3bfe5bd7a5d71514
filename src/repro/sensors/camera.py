"""Stereo camera model: a pinhole rig observing a 3-D landmark field.

The VIO consumes what a real feature front-end would produce from a ZED
Mini: per-frame sets of (feature id, left pixel, right pixel) observations
with pixel noise.  Landmark identity is known to the *sensor* (it generated
the world) but the VIO treats ids only as track associations, exactly as a
KLT tracker would provide.

The camera exposes the §V.C sensor knob: shorter exposure costs more pixel
noise (darker image) but less sensor power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.maths.se3 import R_CAM_BODY, Pose
from repro.maths.quaternion import quat_conjugate, quat_rotate


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics."""

    fx: float = 458.0
    fy: float = 458.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480

    def project(self, points_cam: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Project camera-frame points (N,3) to pixels (N,2) + validity mask."""
        points_cam = np.atleast_2d(np.asarray(points_cam, dtype=float))
        z = points_cam[:, 2]
        in_front = z > 0.05
        z_safe = np.where(in_front, z, 1.0)
        u = self.fx * points_cam[:, 0] / z_safe + self.cx
        v = self.fy * points_cam[:, 1] / z_safe + self.cy
        in_image = (u >= 0) & (u < self.width) & (v >= 0) & (v < self.height)
        return np.column_stack([u, v]), in_front & in_image

    def back_project(self, pixel: np.ndarray) -> np.ndarray:
        """Unit-depth camera-frame ray for a pixel (u, v)."""
        u, v = np.asarray(pixel, dtype=float)
        return np.array([(u - self.cx) / self.fx, (v - self.cy) / self.fy, 1.0])


@dataclass
class LandmarkField:
    """Random 3-D points on the walls/ceiling of a room-sized shell."""

    count: int = 600
    room_half_extent: float = 4.5
    room_height: float = 3.0
    seed: int = 7
    points: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.count < 8:
            raise ValueError(f"need at least 8 landmarks: {self.count}")
        rng = np.random.default_rng(self.seed)
        h = self.room_half_extent
        points = []
        per_wall = self.count // 5
        # Four walls.
        for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
            p = rng.uniform(-h, h, (per_wall, 3))
            p[:, 2] = rng.uniform(0.0, self.room_height, per_wall)
            p[:, axis] = sign * h
            points.append(p)
        # Ceiling.
        rest = self.count - 4 * per_wall
        p = rng.uniform(-h, h, (rest, 3))
        p[:, 2] = self.room_height
        points.append(p)
        self.points = np.vstack(points)


# The ZED Mini's stereo baseline is 63 mm.
ZED_MINI_BASELINE_M = 0.063


@dataclass(frozen=True)
class CameraFrame:
    """One stereo frame's worth of feature observations.

    ``observations`` maps feature id -> (u_left, v_left, u_right, v_right).
    """

    timestamp: float
    observations: Dict[int, Tuple[float, float, float, float]]
    exposure_ms: float = 1.0

    @property
    def feature_count(self) -> int:
        """Number of features observed in this frame."""
        return len(self.observations)


@dataclass
class StereoCamera:
    """A stereo rig rigidly attached to the head (IMU) frame.

    The camera looks along body +x (the walking direction in our
    trajectories); camera frame is the usual (x right, y down, z forward),
    reached from the body frame by :data:`~repro.maths.se3.R_CAM_BODY`.
    """

    landmarks: LandmarkField
    intrinsics: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    baseline_m: float = ZED_MINI_BASELINE_M
    pixel_noise_at_1ms: float = 0.6
    max_features: int = 80
    exposure_ms: float = 1.0
    seed: int = 11

    def __post_init__(self) -> None:
        if self.baseline_m <= 0:
            raise ValueError("baseline must be positive")
        if not 0.2 <= self.exposure_ms <= 20.0:
            raise ValueError(f"exposure out of range: {self.exposure_ms}")
        self._rng = np.random.default_rng(self.seed)

    @property
    def pixel_noise(self) -> float:
        """Pixel noise std at the current exposure (shorter = noisier)."""
        return self.pixel_noise_at_1ms * np.sqrt(1.0 / self.exposure_ms)

    def sensor_power_w(self) -> float:
        """Camera sensor power at the current exposure (the §V.C knob)."""
        return 0.25 + 0.05 * self.exposure_ms

    def world_to_camera(self, pose: Pose, eye_offset: float = 0.0) -> np.ndarray:
        """World landmark points in the camera frame at ``pose``.

        ``eye_offset`` shifts along the camera x-axis (stereo baseline).
        """
        body = quat_rotate(
            quat_conjugate(pose.orientation), self.landmarks.points - pose.position
        )
        cam = body @ R_CAM_BODY.T
        cam[:, 0] -= eye_offset
        return cam

    def observe(self, pose: Pose, timestamp: float) -> CameraFrame:
        """Observe the landmark field from ``pose`` at ``timestamp``."""
        left = self.world_to_camera(pose, eye_offset=0.0)
        right = self.world_to_camera(pose, eye_offset=self.baseline_m)
        px_left, valid_left = self.intrinsics.project(left)
        px_right, valid_right = self.intrinsics.project(right)
        valid = valid_left & valid_right
        ids = np.flatnonzero(valid)
        if len(ids) > self.max_features:
            # Prefer features near the image center (a detector would).
            center = np.array([self.intrinsics.cx, self.intrinsics.cy])
            distance = np.linalg.norm(px_left[ids] - center, axis=1)
            ids = ids[np.argsort(distance)[: self.max_features]]
        noise = self._rng.normal(0.0, self.pixel_noise, (len(ids), 4))
        pixels = np.concatenate([px_left[ids], px_right[ids]], axis=1) + noise
        observations = dict(zip(ids.tolist(), map(tuple, pixels.tolist())))
        return CameraFrame(timestamp=timestamp, observations=observations, exposure_ms=self.exposure_ms)

    def landmark_position(self, feature_id: int) -> Optional[np.ndarray]:
        """Ground-truth world position of a landmark (testing only)."""
        if 0 <= feature_id < len(self.landmarks.points):
            return self.landmarks.points[feature_id].copy()
        return None
