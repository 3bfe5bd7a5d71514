"""Component offloading (§II, footnote 2 of the paper).

"Since component interfaces are well-specified and modular, a local
component can be easily swapped with a remote one without modifying the
rest of the system.  We have already implemented offloading some
components and plan a generalized offloading module."

This module is that generalized offloading module for the reproduction:

- :class:`NetworkLink` -- a latency + bandwidth model on the DES (uplink
  and downlink as contended serial resources);
- :class:`OffloadedVioPlugin` -- VIO running on a *remote* platform: the
  camera frame is shipped uplink, processed with the remote platform's
  timing, and the pose estimate returns downlink.  The local device pays
  (almost) no VIO compute, at the price of added pose latency.

The headline trade-off this enables (and the extension bench measures):
on Jetson-LP, offloading VIO to a desktop-class edge server frees local
CPU and restores the camera-rate pose stream -- until the network round
trip eats the benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import SystemConfig
from repro.core.plugin import InvocationContext, IterationResult, OnTopic, Plugin
from repro.core.phonebook import Phonebook
from repro.core.switchboard import Switchboard
from repro.hardware.platform import Platform
from repro.hardware.timing import TimingModel
from repro.maths.splines import TrajectorySpline
from repro.sensors.camera import CameraFrame, StereoCamera


@dataclass(frozen=True)
class NetworkLink:
    """A symmetric-latency, asymmetric-bandwidth wireless link."""

    latency_s: float = 0.004            # one-way (e.g. Wi-Fi 6 / 5G edge)
    uplink_bps: float = 200e6
    downlink_bps: float = 200e6
    jitter_s: float = 0.001

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latencies must be non-negative")
        if self.uplink_bps <= 0 or self.downlink_bps <= 0:
            raise ValueError("bandwidths must be positive")

    def uplink_time(self, payload_bytes: int, rng: np.random.Generator) -> float:
        """One-way transfer time for ``payload_bytes`` up to the server."""
        return (
            self.latency_s
            + payload_bytes * 8 / self.uplink_bps
            + float(rng.exponential(self.jitter_s))
        )

    def downlink_time(self, payload_bytes: int, rng: np.random.Generator) -> float:
        """One-way transfer time for ``payload_bytes`` back to the device."""
        return (
            self.latency_s
            + payload_bytes * 8 / self.downlink_bps
            + float(rng.exponential(self.jitter_s))
        )


# Payload sizes: a stereo feature frame (ids + 4 floats per feature, plus
# image patches a real system would ship) and a pose estimate.
FRAME_BYTES_PER_FEATURE = 4 * 4 + 8 + 64   # uv pairs + id + descriptor patch
FRAME_BYTES_BASE = 2048
POSE_BYTES = 256


class OffloadedVioPlugin(Plugin):
    """VIO executed on a remote platform across a network link.

    Keeps the exact switchboard contract of the local
    :class:`~repro.plugins.perception.VioPlugin` (consumes ``camera``,
    produces ``slow_pose``), so the rest of the system is untouched --
    the modularity claim of §II-B made concrete.

    Timing: the *local* cost charged to this plugin is a small
    serialization overhead; the remote compute and both network legs are
    modeled as extra pipeline delay before the estimate is published
    (folded into this plugin's invocation via explicit waits).
    """

    name = "vio"
    component = "camera"   # local cost: serialize + ship (camera-sized)
    pipeline = "perception"

    def __init__(
        self,
        config: SystemConfig,
        camera: StereoCamera,
        trajectory: TrajectorySpline,
        remote_platform: Platform,
        link: Optional[NetworkLink] = None,
    ) -> None:
        super().__init__(OnTopic("camera"))
        from repro.plugins.perception import VioPlugin

        # Delegate the actual filtering to a local VioPlugin instance --
        # the algorithm is identical; only *where* it runs differs.
        self._inner = VioPlugin(config, camera, trajectory)
        self.config = config
        self.link = link or NetworkLink()
        self.remote_timing = TimingModel(remote_platform, seed=config.seed + 1)
        self._rng = np.random.default_rng(config.seed + 700)
        self.round_trips: list[float] = []

    def setup(self, phonebook: Phonebook, switchboard: Switchboard) -> None:
        super().setup(phonebook, switchboard)
        self._inner.setup(phonebook, switchboard)

    def iteration(self, ctx: InvocationContext) -> IterationResult:
        inner_result = self._inner.iteration(ctx)
        if inner_result.skipped:
            return inner_result
        frame: Optional[CameraFrame] = ctx.trigger_event.data if ctx.trigger_event else None
        feature_count = frame.feature_count if frame is not None else 40
        payload = FRAME_BYTES_BASE + feature_count * FRAME_BYTES_PER_FEATURE

        uplink = self.link.uplink_time(payload, self._rng)
        remote_compute = self.remote_timing.sample(
            "vio", complexity=max(inner_result.complexity, 1e-3)
        ).total
        downlink = self.link.downlink_time(POSE_BYTES, self._rng)
        round_trip = uplink + remote_compute + downlink
        self.round_trips.append(round_trip)

        result = IterationResult(outputs=inner_result.outputs)
        # Local cost: serialization only (charged via the 'camera' cost
        # model); the remote round trip delays publication.
        result.complexity = 1.0
        result.extra_delay = round_trip
        return result


def build_offloaded_runtime(
    platform: Platform,
    remote_platform: Platform,
    app_name: str = "platformer",
    config: Optional[SystemConfig] = None,
    link: Optional[NetworkLink] = None,
):
    """The integrated system with VIO offloaded to ``remote_platform``.

    Everything except the VIO plugin is identical to
    :func:`repro.core.runtime.build_runtime` -- the swap exercises the
    modularity §II-B claims.
    """
    from repro.core.runtime import build_runtime
    from repro.plugins.perception import VioPlugin

    runtime = build_runtime(platform, app_name, config)
    runtime.plugins = [
        OffloadedVioPlugin(
            runtime.config,
            plugin.camera,
            plugin.trajectory,
            remote_platform=remote_platform,
            link=link,
        )
        if isinstance(plugin, VioPlugin)
        else plugin
        for plugin in runtime.plugins
    ]
    return runtime
