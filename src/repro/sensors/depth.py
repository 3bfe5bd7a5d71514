"""Analytic depth camera for scene reconstruction (dyson_lab stand-in).

Renders depth images of a procedural scene -- a rectangular room with a few
boxes and spheres -- by vectorized ray casting.  Scene reconstruction
consumes these RGB-D-like frames the way ElasticFusion consumes the
dyson_lab sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.maths.quaternion import quat_rotate
from repro.maths.se3 import R_CAM_BODY, Pose


@dataclass(frozen=True)
class SphereObject:
    """A solid sphere in the scene."""

    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class BoxObject:
    """An axis-aligned solid box in the scene."""

    minimum: np.ndarray
    maximum: np.ndarray


@dataclass
class DepthScene:
    """Room interior plus furniture-like primitives."""

    room_half_extent: float = 3.5
    room_height: float = 2.8
    spheres: List[SphereObject] = field(default_factory=list)
    boxes: List[BoxObject] = field(default_factory=list)

    @staticmethod
    def default(seed: int = 3) -> "DepthScene":
        """A repeatable cluttered room."""
        rng = np.random.default_rng(seed)
        spheres = [
            SphereObject(
                center=np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.3, 1.5)]),
                radius=rng.uniform(0.2, 0.5),
            )
            for _ in range(3)
        ]
        boxes = [
            BoxObject(
                minimum=np.array([x - 0.4, y - 0.4, 0.0]),
                maximum=np.array([x + 0.4, y + 0.4, rng.uniform(0.5, 1.2)]),
            )
            for x, y in ((1.5, -1.5), (-1.8, 1.2))
        ]
        return DepthScene(spheres=spheres, boxes=boxes)


@dataclass
class DepthCamera:
    """Pinhole depth camera rendering the scene by ray casting."""

    scene: DepthScene
    width: int = 80
    height: int = 60
    fov_deg: float = 70.0
    max_depth: float = 10.0
    noise_std: float = 0.01
    seed: int = 5

    def __post_init__(self) -> None:
        if self.width < 4 or self.height < 4:
            raise ValueError("depth image too small")
        self._rng = np.random.default_rng(self.seed)
        focal = 0.5 * self.width / np.tan(np.radians(self.fov_deg) / 2.0)
        self.fx = self.fy = focal
        self.cx = self.width / 2.0
        self.cy = self.height / 2.0
        u, v = np.meshgrid(np.arange(self.width) + 0.5, np.arange(self.height) + 0.5)
        # Camera frame: x right, y down, z forward.
        self._rays_cam = np.stack(
            [(u - self.cx) / self.fx, (v - self.cy) / self.fy, np.ones_like(u)], axis=-1
        )

    def ray_directions_world(self, pose: Pose) -> np.ndarray:
        """Unnormalized world-frame ray directions per pixel (H, W, 3)."""
        rays_body = self._rays_cam @ R_CAM_BODY  # inverse of body->cam
        return quat_rotate(pose.orientation, rays_body.reshape(-1, 3)).reshape(
            self.height, self.width, 3
        )

    def render(self, pose: Pose, noisy: bool = True) -> np.ndarray:
        """Depth image (H, W) in metres along the camera z-axis."""
        origins = pose.position
        directions = self.ray_directions_world(pose).reshape(-1, 3)
        z_scale = np.linalg.norm(self._rays_cam.reshape(-1, 3), axis=1)
        t_hit = np.full(directions.shape[0], np.inf)
        t_hit = np.minimum(t_hit, self._intersect_room(origins, directions))
        for sphere in self.scene.spheres:
            t_hit = np.minimum(t_hit, _intersect_sphere(origins, directions, sphere))
        for box in self.scene.boxes:
            t_hit = np.minimum(t_hit, _intersect_box(origins, directions, box))
        depth = t_hit / z_scale  # parametric distance -> z-depth
        depth[~np.isfinite(depth)] = 0.0
        depth[depth > self.max_depth] = 0.0
        depth = depth.reshape(self.height, self.width)
        if noisy:
            valid = depth > 0
            jitter = self._rng.normal(0.0, self.noise_std, depth.shape) * depth
            depth = np.where(valid, np.maximum(depth + jitter, 1e-3), 0.0)
        return depth

    def _intersect_room(self, origin: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Distance to the room's interior walls (we are inside the box)."""
        h = self.scene.room_half_extent
        low = np.array([-h, -h, 0.0])
        high = np.array([h, h, self.scene.room_height])
        with np.errstate(divide="ignore", invalid="ignore"):
            t_low = (low - origin) / directions
            t_high = (high - origin) / directions
        t_far = np.maximum(t_low, t_high)
        t_far[~np.isfinite(t_far)] = np.inf
        t_exit = np.min(t_far, axis=1)
        return np.where(t_exit > 1e-6, t_exit, np.inf)


def _intersect_sphere(origin: np.ndarray, directions: np.ndarray, sphere: SphereObject) -> np.ndarray:
    oc = origin - sphere.center
    a = np.sum(directions * directions, axis=1)
    b = 2.0 * directions @ oc
    c = float(oc @ oc) - sphere.radius**2
    disc = b * b - 4 * a * c
    hit = disc >= 0
    sqrt_disc = np.sqrt(np.where(hit, disc, 0.0))
    t = (-b - sqrt_disc) / (2 * a)
    return np.where(hit & (t > 1e-6), t, np.inf)


def _intersect_box(origin: np.ndarray, directions: np.ndarray, box: BoxObject) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t_low = (box.minimum - origin) / directions
        t_high = (box.maximum - origin) / directions
    t_near = np.nanmax(np.minimum(t_low, t_high), axis=1)
    t_far = np.nanmin(np.maximum(t_low, t_high), axis=1)
    hit = (t_near <= t_far) & (t_far > 1e-6)
    t = np.where(t_near > 1e-6, t_near, t_far)
    return np.where(hit, t, np.inf)
