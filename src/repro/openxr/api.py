"""OpenXR-flavoured frame-loop API over the repro runtime.

The subset a rendering client actually uses, with OpenXR's names and call
ordering:

.. code-block:: python

    instance = Instance.create("my app")
    session = instance.create_session(runtime)
    while session.running:
        frame = session.wait_frame()           # xrWaitFrame
        session.begin_frame()                  # xrBeginFrame
        views = session.locate_views(frame.predicted_display_time)
        layer = render(views)                  # app-side
        session.end_frame(frame, [layer])      # xrEndFrame

Calls map onto switchboard topics: ``locate_views`` is an asynchronous
read of ``fast_pose`` (with optional prediction to the display time), and
``end_frame`` publishes on ``frame`` exactly as the application plugin
does.  The conformance-style state machine (create -> begin -> end) is
enforced so misuse fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.switchboard import Switchboard
from repro.maths.se3 import Pose, extrapolate_pose
from repro.plugins.visual import SubmittedFrame


class XrError(RuntimeError):
    """Raised on OpenXR state-machine violations."""


@dataclass(frozen=True)
class FrameState:
    """Result of ``wait_frame``: when the frame will be displayed."""

    predicted_display_time: float
    predicted_display_period: float
    should_render: bool = True


@dataclass(frozen=True)
class ViewLocation:
    """One eye's view pose (we expose left/right with a stereo offset)."""

    pose: Pose
    eye: str
    fov_deg: float


@dataclass
class CompositionLayer:
    """What the app submits: a rendered frame tagged with its view pose."""

    pose: Pose
    image: Optional[np.ndarray] = None
    depth: Optional[np.ndarray] = None


class Instance:
    """An OpenXR instance: entry point, owns sessions."""

    def __init__(self, application_name: str) -> None:
        if not application_name:
            raise XrError("application name must be non-empty")
        self.application_name = application_name
        self.runtime_name = "repro (ILLIXR reproduction) via Monado-style shim"

    @staticmethod
    def create(application_name: str) -> "Instance":
        """xrCreateInstance."""
        return Instance(application_name)

    def create_session(
        self,
        switchboard: Switchboard,
        display_rate_hz: float = 120.0,
        ipd_m: float = 0.064,
        now_fn=None,
    ) -> "Session":
        """xrCreateSession against a runtime's switchboard."""
        return Session(self, switchboard, display_rate_hz, ipd_m, now_fn or (lambda: 0.0))


class Session:
    """An OpenXR session: the frame loop."""

    def __init__(
        self,
        instance: Instance,
        switchboard: Switchboard,
        display_rate_hz: float,
        ipd_m: float,
        now_fn,
    ) -> None:
        if display_rate_hz <= 0:
            raise XrError("display rate must be positive")
        self.instance = instance
        self.switchboard = switchboard
        self.display_period = 1.0 / display_rate_hz
        self.ipd_m = ipd_m
        self._now = now_fn
        self.running = True
        self._frame_began = False
        self.frames_submitted = 0

    # ------------------------------------------------------------------

    def wait_frame(self) -> FrameState:
        """xrWaitFrame: next display time prediction."""
        if not self.running:
            raise XrError("session is not running")
        now = self._now()
        next_vsync = (int(now / self.display_period) + 1) * self.display_period
        return FrameState(
            predicted_display_time=next_vsync,
            predicted_display_period=self.display_period,
        )

    def begin_frame(self) -> None:
        """xrBeginFrame."""
        if self._frame_began:
            raise XrError("begin_frame called twice without end_frame")
        self._frame_began = True

    def locate_views(self, display_time: float) -> List[ViewLocation]:
        """xrLocateViews: the freshest head pose, predicted to display time.

        Prediction propagates the pose forward by the pose age using a
        constant-angular-velocity model when two poses are available
        (footnote 3 of the paper: ILLIXR can predict the pose for when the
        frame will actually be displayed).
        """
        topic = self.switchboard.topic("fast_pose")
        latest = topic.get_latest()
        if latest is None or latest.data is None:
            head = Pose(np.array([0.0, 0.0, 1.7]))
        else:
            head = latest.data
            previous = topic.get_latest_before(latest.publish_time - 1e-9)
            if previous is not None and previous.data is not None:
                # Velocities from the last two poses.
                head = extrapolate_pose(
                    head,
                    latest.effective_data_time,
                    previous.data,
                    previous.effective_data_time,
                    display_time - latest.effective_data_time,
                )
        half_ipd = self.ipd_m / 2.0
        views = []
        for eye, sign in (("left", +1.0), ("right", -1.0)):
            # Eye offset along body +y (left).
            offset = np.array([0.0, sign * half_ipd, 0.0])
            views.append(
                ViewLocation(
                    pose=Pose(
                        position=head.transform_point(offset),
                        orientation=head.orientation,
                        timestamp=head.timestamp,
                    ),
                    eye=eye,
                    fov_deg=90.0,
                )
            )
        return views

    def end_frame(self, frame: FrameState, layers: List[CompositionLayer]) -> None:
        """xrEndFrame: submit layers to the compositor (the ``frame`` topic)."""
        if not self._frame_began:
            raise XrError("end_frame without begin_frame")
        self._frame_began = False
        if not layers:
            return
        layer = layers[0]
        now = self._now()
        self.switchboard.topic("frame").put(
            max(now, frame.predicted_display_time - self.display_period),
            SubmittedFrame(pose=layer.pose, render_start=now, complexity=1.0),
            data_time=layer.pose.timestamp,
        )
        self.frames_submitted += 1

    def request_exit(self) -> None:
        """xrRequestExitSession."""
        self.running = False
