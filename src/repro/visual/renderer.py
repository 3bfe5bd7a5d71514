"""Software ray-cast renderer: the "application" of the visual pipeline.

Stands in for Godot rendering the four evaluation scenes.  View-dependent
shading (Lambertian + Blinn-Phong speculars + procedural wall texture)
makes reprojection error *real*: warping an old frame to a new pose leaves
exactly the disocclusion/parallax artifacts the SSIM/FLIP metrics of
Table V are sensitive to.

Also exposes :meth:`Renderer.view_complexity`, a cheap analytic proxy for
per-frame render cost (how much geometry the view actually hits) used as
the input-dependence signal for the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.maths.quaternion import quat_rotate
from repro.maths.se3 import Pose
from repro.visual.scenes import Scene

# Body (x fwd, y left, z up) -> camera (x right, y down, z fwd).
R_CAM_BODY = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class RenderCamera:
    """Rendering camera: resolution + field of view."""

    width: int = 320
    height: int = 180
    fov_deg: float = 90.0

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 8:
            raise ValueError("render target too small")
        if not 10.0 <= self.fov_deg <= 180.0:
            raise ValueError(f"fov out of range: {self.fov_deg}")

    @property
    def focal_px(self) -> float:
        """Focal length in pixels (horizontal)."""
        return 0.5 * self.width / np.tan(np.radians(self.fov_deg) / 2.0)

    def intrinsic_matrix(self) -> np.ndarray:
        """3x3 pinhole K for reprojection homographies."""
        f = self.focal_px
        return np.array(
            [[f, 0.0, self.width / 2.0], [0.0, f, self.height / 2.0], [0.0, 0.0, 1.0]]
        )

    def rays_camera(self) -> np.ndarray:
        """Per-pixel camera-frame ray directions, shape (H, W, 3)."""
        u, v = np.meshgrid(
            np.arange(self.width) + 0.5, np.arange(self.height) + 0.5
        )
        f = self.focal_px
        return np.stack(
            [(u - self.width / 2.0) / f, (v - self.height / 2.0) / f, np.ones_like(u)],
            axis=-1,
        )


@dataclass(frozen=True)
class RenderedFrame:
    """The application's submitted frame: color + depth + the pose used."""

    image: np.ndarray       # (H, W, 3) float in [0, 1]
    depth: np.ndarray       # (H, W) metres along camera z (0 = miss)
    pose: Pose              # the (possibly stale) pose it was rendered with
    render_time: float      # virtual time at which rendering started


class Renderer:
    """Renders a :class:`Scene` from arbitrary head poses."""

    def __init__(self, scene: Scene, camera: Optional[RenderCamera] = None) -> None:
        self.scene = scene
        self.camera = camera or RenderCamera()
        self._rays_cam = self.camera.rays_camera().reshape(-1, 3)
        self._z_scale = np.linalg.norm(self._rays_cam, axis=1)
        # Each box's bounding sphere (center, radius), for the render
        # pre-test and view_complexity.
        self._box_spheres = [
            (0.5 * (box.minimum + box.maximum), 0.5 * float(np.linalg.norm(box.maximum - box.minimum)))
            for box in scene.boxes
        ]

    # ------------------------------------------------------------------

    def render(self, pose: Pose, render_time: float = 0.0) -> RenderedFrame:
        """Render the scene from ``pose``; returns color + depth.

        Each primitive's intersection runs only on the rays that can still
        hit it, and a hit is written only where it is closer than the
        nearest one so far.
        """
        h, w = self.camera.height, self.camera.width
        rays_body = self._rays_cam @ R_CAM_BODY
        directions = quat_rotate(pose.orientation, rays_body)
        origin = pose.position
        n = directions.shape[0]

        # Room walls (textured apps only; AR demo leaves them black).  A ray
        # that misses them keeps t = inf, so whatever it carries is masked
        # (and the inf arithmetic that shades it may make NaNs).
        t_hit, normal = self._intersect_room(origin, directions)
        if self.scene.textured_room:
            with np.errstate(invalid="ignore"):
                hit_points = origin + directions * t_hit[:, None]
                albedo = self._wall_texture(hit_points, normal)
            specular = np.full(n, 0.05)
        else:
            # Opaque but black: occludes virtual objects correctly.
            albedo = np.zeros((n, 3))
            specular = np.zeros(n)

        # Ray-sphere quadratic terms shared by every primitive.  ``b`` stays
        # a product over all rays: a product over a subset may round
        # differently in the last bit.
        a = np.sum(directions * directions, axis=1)
        two_directions = 2.0 * directions
        four_a = 4 * a

        for sphere in self.scene.spheres:
            oc = origin - sphere.center
            b = two_directions @ oc
            c = float(oc @ oc) - sphere.radius * sphere.radius
            disc = b * b - four_a * c
            rays = np.flatnonzero(disc >= 0)
            t = (-b[rays] - np.sqrt(disc[rays])) / (2 * a[rays])
            closer = (t > 1e-6) & (t < t_hit[rays])
            rays, t = rays[closer], t[closer]
            points = origin + directions[rays] * t[:, None]
            t_hit[rays] = t
            albedo[rays] = sphere.color
            normal[rays] = (points - sphere.center) / sphere.radius
            specular[rays] = sphere.specular

        for box, (center, radius) in zip(self.scene.boxes, self._box_spheres):
            # Pre-test: a ray that hits the box meets its bounding sphere
            # ahead of the origin (disc >= 0 and a positive far root, i.e.
            # b < 0 or c < 0).  The padding keeps the test conservative
            # under rounding.
            radius = radius * (1 + 1e-6) + 1e-9
            oc = origin - center
            b = two_directions @ oc
            c = float(oc @ oc) - radius * radius
            near = (b * b - four_a * c >= 0) & ((b < 0) | (c < 0))
            rays = np.flatnonzero(near)
            t, nrm = _box_hit(origin, directions[rays], box.minimum, box.maximum)
            closer = t < t_hit[rays]
            rays = rays[closer]
            t_hit[rays] = t[closer]
            albedo[rays] = box.color
            normal[rays] = nrm[closer]
            specular[rays] = box.specular

        hit_any = np.isfinite(t_hit)
        # Shading: ambient + Lambertian + Blinn-Phong.
        light = -self.scene.light_dir
        n_dot_l = np.clip(normal @ light, 0.0, 1.0)
        view = -directions / np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-12)
        half = light + view
        half /= np.maximum(np.linalg.norm(half, axis=1, keepdims=True), 1e-12)
        spec_term = specular * np.clip(np.sum(normal * half, axis=1), 0.0, 1.0) ** 24
        shade = 0.25 + 0.75 * n_dot_l
        color = albedo * shade[:, None] + spec_term[:, None]
        color[~hit_any] = 0.0

        depth = np.where(hit_any, t_hit / self._z_scale, 0.0)
        return RenderedFrame(
            image=np.clip(color, 0.0, 1.0).reshape(h, w, 3),
            depth=depth.reshape(h, w),
            pose=pose,
            render_time=render_time,
        )

    def view_complexity(self, pose: Pose) -> float:
        """Cheap proxy for render cost at ``pose`` (mean 1.0 over views).

        Counts scene primitives within the view frustum, weighted by
        projected solid angle -- the signal that makes the application's
        per-frame time input-dependent (Fig. 4 of the paper).
        """
        forward = quat_rotate(pose.orientation, np.array([1.0, 0.0, 0.0]))
        cos_half_fov = np.cos(np.radians(self.camera.fov_deg) / 2.0 * 1.2)
        weight = 0.4  # base cost: room + post-processing
        for sphere in self.scene.spheres:
            weight += _frustum_weight(pose.position, forward, cos_half_fov, sphere.center, sphere.radius)
        for center, radius in self._box_spheres:
            weight += _frustum_weight(pose.position, forward, cos_half_fov, center, radius)
        n_prims = max(len(self.scene.spheres) + len(self.scene.boxes), 1)
        # Normalize so the average over random views is ~1.
        return float(np.clip(weight / (0.4 + 0.5 * n_prims * 0.35), 0.4, 2.5))

    # ------------------------------------------------------------------

    def _intersect_room(
        self, origin: np.ndarray, directions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        h = self.scene.room_half_extent
        low = np.array([-h, -h, 0.0])
        high = np.array([h, h, self.scene.room_height])
        with np.errstate(divide="ignore", invalid="ignore"):
            t_low = (low - origin) / directions
            t_high = (high - origin) / directions
        t_far = np.maximum(t_low, t_high)
        t_far[~np.isfinite(t_far)] = np.inf
        axis = np.argmin(t_far, axis=1)
        t_exit = t_far[np.arange(len(axis)), axis]
        t_exit = np.where(t_exit > 1e-6, t_exit, np.inf)
        normals = -np.sign(directions[np.arange(len(axis)), axis])[:, None] * np.eye(3)[axis]
        return t_exit, normals

    def _wall_texture(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Procedural checker + stripe texture keyed on world position."""
        u = points[:, 0] + points[:, 1] * 0.5
        v = points[:, 2] + points[:, 1] * 0.25
        checker = ((np.floor(u * 2.0) + np.floor(v * 2.0)) % 2.0)
        stripes = 0.5 + 0.5 * np.sin(u * 9.0)
        base = np.array([0.55, 0.5, 0.45])
        tint = np.array([0.25, 0.22, 0.3])
        tex = base[None, :] + tint[None, :] * (0.6 * checker + 0.4 * stripes)[:, None]
        # Slight per-face tint so walls are distinguishable.
        tex *= 0.85 + 0.15 * np.abs(normals)
        return np.clip(tex, 0.0, 1.0)


def _box_hit(
    origin: np.ndarray, directions: np.ndarray, minimum: np.ndarray, maximum: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore", invalid="ignore"):
        t_low = (minimum - origin) / directions
        t_high = (maximum - origin) / directions
    t_min = np.minimum(t_low, t_high)
    t_max = np.maximum(t_low, t_high)
    axis = np.argmax(t_min, axis=1)
    t_near = t_min[np.arange(len(axis)), axis]
    t_far = np.min(t_max, axis=1)
    hit = (t_near <= t_far) & (t_far > 1e-6) & (t_near > 1e-6)
    t = np.where(hit, t_near, np.inf)
    normals = -np.sign(directions[np.arange(len(axis)), axis])[:, None] * np.eye(3)[axis]
    return t, normals


def _frustum_weight(
    position: np.ndarray,
    forward: np.ndarray,
    cos_half_fov: float,
    center: np.ndarray,
    radius: float,
) -> float:
    to_center = center - position
    distance = float(np.linalg.norm(to_center))
    if distance < 1e-6:
        return 1.0
    cos_angle = float(to_center @ forward) / distance
    if cos_angle < cos_half_fov:
        return 0.0
    # Projected solid-angle proxy, clamped for very near objects.
    return min(1.0, (radius / max(distance, radius)) ** 2 * 4.0)
