"""The scene-reconstruction component pipeline (Table VI stage structure).

Per frame:

1. **camera processing** -- bilateral-style smoothing, invalid rejection;
2. **image processing** -- vertex/normal map generation;
3. **pose estimation** -- point-to-plane ICP against the model prediction;
4. **surfel prediction** -- raycast the volume from the estimated pose;
5. **map fusion** -- integrate the depth frame into the TSDF.

The first frame bootstraps the volume at the given pose.  The pipeline's
per-frame time grows with map size and spikes when large re-integrations
happen -- the behaviour §IV-B1 reports for ElasticFusion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.maths.se3 import Pose
from repro.perception.reconstruction.icp import IcpResult, icp_point_to_plane
from repro.perception.reconstruction.keyframes import KeyframeDatabase
from repro.perception.reconstruction.raycast import RaycastResult, raycast
from repro.perception.reconstruction.tsdf import TsdfVolume
from repro.perf import TaskTimer
from repro.sensors.depth import DepthCamera

TASK_NAMES = (
    "camera_processing",
    "image_processing",
    "pose_estimation",
    "surfel_prediction",
    "map_fusion",
)


@dataclass(frozen=True)
class ReconstructionFrameResult:
    """Per-frame output of the pipeline."""

    pose: Pose
    icp: Optional[IcpResult]
    voxels_updated: int
    occupied_fraction: float
    frame_time_s: float
    loop_closure: bool = False


class ReconstructionPipeline:
    """Frame-to-model dense SLAM over a TSDF volume."""

    def __init__(
        self,
        camera: DepthCamera,
        volume: Optional[TsdfVolume] = None,
        bilateral_sigma_px: float = 1.0,
        min_valid_depth_m: float = 0.15,
        max_valid_depth_m: float = 8.0,
        enable_loop_closure: bool = True,
    ) -> None:
        self.camera = camera
        self.volume = volume or TsdfVolume()
        self.bilateral_sigma_px = bilateral_sigma_px
        self.min_valid_depth_m = min_valid_depth_m
        self.max_valid_depth_m = max_valid_depth_m
        self.enable_loop_closure = enable_loop_closure
        self.keyframes = KeyframeDatabase()
        self.loop_closures = 0
        self._timer = TaskTimer("reconstruction", TASK_NAMES)
        self.frame_times: List[float] = []
        self._model: Optional[RaycastResult] = None
        self._model_pose: Optional[Pose] = None

    def process_frame(self, depth: np.ndarray, pose_guess: Pose) -> ReconstructionFrameResult:
        """Track against the model and fuse one depth frame."""
        frame_start = time.perf_counter()

        with self._timer("camera_processing"):
            filtered = self._camera_processing(depth)

        with self._timer("image_processing"):
            # Vertex/normal maps are computed inside ICP and raycast; this
            # stage models the standalone pre-computation of the current
            # frame's maps.
            _vertex_map = self.camera._rays_cam * filtered[..., None]
            _normals = self._normals_from_depth(filtered)

        icp_result: Optional[IcpResult] = None
        estimated = pose_guess
        if self._model is not None and self._model_pose is not None:
            with self._timer("pose_estimation"):
                icp_result = icp_point_to_plane(
                    filtered, self.camera, pose_guess, self._model, self._model_pose
                )
                estimated = icp_result.pose

        with self._timer("map_fusion"):
            voxels = self.volume.integrate(filtered, estimated, self.camera)
            # Loop closure (§IV-B1): a keyframe match triggers the global
            # consistency pass -- realign against the matched view and
            # re-integrate the stored keyframes.  This is the order-of-
            # magnitude execution-time spike the paper observes.
            loop_closed = False
            if self.enable_loop_closure:
                match, _stored = self.keyframes.observe(filtered, estimated)
                if match is not None:
                    loop_closed = True
                    self.loop_closures += 1
                    match_view = raycast(self.volume, match.pose, self.camera)
                    realigned = icp_point_to_plane(
                        filtered, self.camera, estimated, match_view, match.pose
                    )
                    estimated = realigned.pose
                    for keyframe in self.keyframes.keyframes:
                        self.volume.integrate(keyframe.depth, keyframe.pose, self.camera)
                    voxels += self.volume.integrate(filtered, estimated, self.camera)

        with self._timer("surfel_prediction"):
            self._model = raycast(self.volume, estimated, self.camera)
            self._model_pose = estimated

        frame_time = time.perf_counter() - frame_start
        self.frame_times.append(frame_time)
        return ReconstructionFrameResult(
            pose=estimated,
            icp=icp_result,
            voxels_updated=voxels,
            occupied_fraction=self.volume.occupied_fraction,
            frame_time_s=frame_time,
            loop_closure=loop_closed,
        )

    # ------------------------------------------------------------------

    def _camera_processing(self, depth: np.ndarray) -> np.ndarray:
        """Edge-preserving smoothing + invalid-depth rejection."""
        valid = (depth > self.min_valid_depth_m) & (depth < self.max_valid_depth_m)
        cleaned = np.where(valid, depth, 0.0)
        if self.bilateral_sigma_px > 0:
            # Normalized-convolution approximation of the bilateral filter:
            # smooth only across valid pixels so holes do not bleed.
            weights = gaussian_filter(valid.astype(float), self.bilateral_sigma_px)
            smoothed = gaussian_filter(cleaned, self.bilateral_sigma_px)
            with np.errstate(invalid="ignore", divide="ignore"):
                blended = np.where(weights > 0.3, smoothed / np.maximum(weights, 1e-9), 0.0)
            # Keep edges: revert pixels where smoothing moved depth a lot.
            edge = np.abs(blended - cleaned) > 0.05 * np.maximum(cleaned, 0.3)
            cleaned = np.where(valid & ~edge, blended, cleaned)
        return cleaned

    def _normals_from_depth(self, depth: np.ndarray) -> np.ndarray:
        """Cross-product normals from the camera-frame vertex map."""
        vertex = self.camera._rays_cam * depth[..., None]
        dx = np.diff(vertex, axis=1, append=vertex[:, -1:])
        dy = np.diff(vertex, axis=0, append=vertex[-1:])
        normals = np.cross(dx, dy)
        norm = np.linalg.norm(normals, axis=-1, keepdims=True)
        return normals / np.maximum(norm, 1e-9)

    def task_breakdown(self) -> Dict[str, float]:
        """Accumulated seconds per Table VI stage."""
        return dict(self._timer.times)
