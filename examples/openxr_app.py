"""An OpenXR-style application: render, reproject, inspect image quality.

Writes a real application against the :mod:`repro.openxr` shim -- the same
wait_frame / locate_views / end_frame loop a Godot or Unreal app would run
against Monado -- then replays the visual pipeline offline: renders the
Sponza scene at the app's (stale) pose, timewarps to the display pose, and
saves before/after images as PPM files you can open with any viewer.

Usage::

    python examples/openxr_app.py [output_dir]
"""

import os
import sys

import numpy as np

from repro.maths.se3 import Pose
from repro.metrics.flip import one_minus_flip
from repro.metrics.ssim import ssim
from repro.openxr import Instance
from repro.openxr.api import CompositionLayer
from repro.openxr.swapchain import Swapchain
from repro.core.switchboard import Switchboard
from repro.sensors.trajectory import lab_walk_trajectory
from repro.visual.distortion import apply_lens_correction
from repro.visual.renderer import RenderCamera, Renderer
from repro.visual.reprojection import rotational_reproject
from repro.visual.scenes import scene_by_name


def save_ppm(path: str, image: np.ndarray) -> None:
    """Write an (H, W, 3) float image in [0,1] as a binary PPM."""
    data = (np.clip(image, 0.0, 1.0) * 255).astype(np.uint8)
    height, width = data.shape[:2]
    with open(path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode())
        handle.write(data.tobytes())


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "openxr_app_output"
    os.makedirs(out_dir, exist_ok=True)

    # A tiny standalone "runtime": a switchboard fed with trajectory poses.
    switchboard = Switchboard()
    trajectory = lab_walk_trajectory(duration=10.0, seed=2)
    clock = {"now": 0.0}

    def publish_pose(t: float) -> None:
        clock["now"] = t
        switchboard.topic("fast_pose").put(t, trajectory.pose(t), data_time=t)

    instance = Instance.create("repro example app")
    session = instance.create_session(switchboard, now_fn=lambda: clock["now"])
    print(f"Runtime: {instance.runtime_name}")

    camera = RenderCamera(width=320, height=180)
    renderer = Renderer(scene_by_name("sponza"), camera)
    k = camera.intrinsic_matrix()
    swapchain = Swapchain(width=camera.width, height=camera.height)

    # The app runs its frame loop; rendering is "slow" (50 ms) and the
    # user is turning their head briskly (~90 deg/s) -- the regime
    # asynchronous reprojection exists for.
    from repro.maths.quaternion import quat_from_axis_angle, quat_multiply

    render_latency = 0.050
    yaw_rate = 1.6  # rad/s head turn
    t = 0.5
    results = []
    for frame_index in range(4):
        publish_pose(t)
        frame = session.wait_frame()
        session.begin_frame()
        views = session.locate_views(frame.predicted_display_time)
        render_pose = views[0].pose
        # Render into a swapchain image (acquire -> wait -> write -> release).
        image_index = swapchain.acquire_image()
        target = swapchain.wait_image(image_index)
        rendered = renderer.render(render_pose)
        target.buffer[:] = rendered.image
        swapchain.release_image(image_index)
        submitted = swapchain.latest_released()
        session.end_frame(frame, [CompositionLayer(pose=render_pose, image=submitted.buffer)])
        swapchain.recycle()

        # While the frame rendered, the head swept yaw_rate * latency.
        turn = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw_rate * render_latency)
        base = trajectory.sample(t + render_latency)
        display_pose = Pose(
            base.position,
            quat_multiply(turn, render_pose.orientation),
            timestamp=t + render_latency,
        )

        stale = rendered.image                       # what you'd see without timewarp
        warped = rotational_reproject(rendered.image, k, render_pose, display_pose)
        corrected = apply_lens_correction(warped)    # lens + chromatic correction
        truth = renderer.render(display_pose).image  # what a zero-latency system shows

        # Compare the central region: the warp's black border is a known,
        # expected artifact (the headset over-renders FoV to hide it).
        def crop(img):
            h, w = img.shape[:2]
            return img[int(0.15 * h) : int(0.85 * h), int(0.15 * w) : int(0.85 * w)]

        quality_stale = ssim(crop(truth), crop(stale))
        quality_warped = ssim(crop(truth), crop(warped))
        results.append((quality_stale, quality_warped))
        save_ppm(os.path.join(out_dir, f"frame{frame_index}_stale.ppm"), stale)
        save_ppm(os.path.join(out_dir, f"frame{frame_index}_warped.ppm"), warped)
        save_ppm(os.path.join(out_dir, f"frame{frame_index}_corrected.ppm"), corrected)
        print(
            f"frame {frame_index}: SSIM vs zero-latency -- "
            f"no warp {quality_stale:.3f}, with timewarp {quality_warped:.3f}, "
            f"1-FLIP warped {one_minus_flip(crop(truth), crop(warped)):.3f}"
        )
        t += 0.35

    improvement = np.mean([w - s for s, w in results])
    print(f"\nTimewarp improved SSIM by {improvement:+.3f} on average.")
    print(f"Submitted {session.frames_submitted} frames; images in {out_dir}/")


if __name__ == "__main__":
    main()
