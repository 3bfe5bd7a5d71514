"""SO(3)/SE(3) utilities and the :class:`Pose` type used across the system.

A :class:`Pose` is the position and orientation of the user's head in the
world frame -- the fundamental datum flowing from the perception pipeline to
the visual and audio pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.maths.quaternion import (
    quat_angle_between,
    quat_conjugate,
    quat_exp,
    quat_identity,
    quat_log,
    quat_multiply,
    quat_normalize,
    quat_rotate,
)

#: The sensor rig's body (x fwd, y left, z up) -> camera (x right, y down,
#: z fwd) rotation, shared by every camera on the head.  Read-only.
R_CAM_BODY = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
R_CAM_BODY.flags.writeable = False


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric (cross-product) matrix of a 3-vector."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: rotation vector -> rotation matrix."""
    phi = np.asarray(phi, dtype=float)
    angle = np.linalg.norm(phi)
    if angle < 1e-12:
        return np.eye(3) + skew(phi)
    axis = phi / angle
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Rotation matrix -> rotation vector (inverse of :func:`so3_exp`)."""
    r = np.asarray(rotation, dtype=float)
    cos_angle = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos_angle)
    if angle < 1e-12:
        return np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]) / 2.0
    if np.pi - angle < 1e-6:
        # Near pi the sin-based formula is ill-conditioned; use the
        # outer-product structure R ~= 2 a a^T - I to recover the axis.
        m = (r + np.eye(3)) / 2.0
        i = int(np.argmax(np.diagonal(m)))
        axis = m[i] / np.sqrt(max(m[i, i], 1e-12))
        axis = axis / max(np.linalg.norm(axis), 1e-12)
        return angle * axis
    axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]) / (2.0 * np.sin(angle))
    return angle * axis


@dataclass(frozen=True)
class Pose:
    """Position + orientation of a rigid body in the world frame.

    ``orientation`` is a unit quaternion mapping body-frame vectors to
    world-frame vectors.  ``timestamp`` is the time of the underlying sensor
    datum (e.g. the IMU sample that produced this estimate), which is what
    MTP measures the age of.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=quat_identity)
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(
            self, "orientation", quat_normalize(np.asarray(self.orientation, dtype=float))
        )
        if self.position.shape != (3,):
            raise ValueError(f"position must be shape (3,), got {self.position.shape}")

    def transform_point(self, point_body: np.ndarray) -> np.ndarray:
        """Body-frame point(s) -> world frame."""
        return quat_rotate(self.orientation, point_body) + self.position

    def inverse_transform_point(self, point_world: np.ndarray) -> np.ndarray:
        """World-frame point(s) -> body frame."""
        return quat_rotate(
            quat_conjugate(self.orientation),
            np.asarray(point_world, dtype=float) - self.position,
        )

    def compose(self, other: "Pose") -> "Pose":
        """This pose followed by ``other`` expressed in this pose's frame."""
        return Pose(
            position=self.transform_point(other.position),
            orientation=quat_multiply(self.orientation, other.orientation),
            timestamp=max(self.timestamp, other.timestamp),
        )

    def relative_to(self, reference: "Pose") -> "Pose":
        """This pose expressed in ``reference``'s frame."""
        inv_q = quat_conjugate(reference.orientation)
        return Pose(
            position=quat_rotate(inv_q, self.position - reference.position),
            orientation=quat_multiply(inv_q, self.orientation),
            timestamp=self.timestamp,
        )

    def translation_error(self, other: "Pose") -> float:
        """Euclidean distance between the two positions (metres)."""
        return float(np.linalg.norm(self.position - other.position))

    def rotation_error(self, other: "Pose") -> float:
        """Geodesic angle between the two orientations (radians)."""
        return quat_angle_between(self.orientation, other.orientation)


def extrapolate_pose(
    head: Pose, head_time: float, previous: Pose, previous_time: float, horizon: float
) -> Pose:
    """``head`` carried ``horizon`` seconds forward at constant velocity.

    The linear and angular velocities are the differences from
    ``previous`` to ``head`` over their data times.  ``head`` itself comes
    back when there is nothing to predict (``horizon <= 0``) or the two
    poses are too close in time to differentiate.
    """
    if horizon <= 0:
        return head
    dt = head_time - previous_time
    if dt <= 1e-6:
        return head
    delta = quat_multiply(quat_conjugate(previous.orientation), head.orientation)
    omega = quat_log(delta) / dt
    velocity = (head.position - previous.position) / dt
    return Pose(
        position=head.position + velocity * horizon,
        orientation=quat_multiply(head.orientation, quat_exp(omega * horizon)),
        timestamp=head.timestamp,
    )
