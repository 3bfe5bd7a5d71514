"""Trajectory accuracy metrics for VIO evaluation (§V.E of the paper).

- **Absolute trajectory error (ATE)**: RMS translation error against
  ground truth after (optional) rigid alignment of the first pose.
- **Relative pose error (RPE)**: drift over fixed time windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.maths.se3 import Pose


@dataclass(frozen=True)
class TrajectoryError:
    """Summary of a trajectory comparison."""

    rmse_m: float
    mean_m: float
    median_m: float
    max_m: float
    count: int

    @classmethod
    def from_errors(cls, errors: Sequence[float]) -> "TrajectoryError":
        """The summary of a non-empty sequence of per-pose errors (m)."""
        errors = np.asarray(errors)
        return cls(
            rmse_m=float(np.sqrt((errors**2).mean())),
            mean_m=float(errors.mean()),
            median_m=float(np.median(errors)),
            max_m=float(errors.max()),
            count=len(errors),
        )


def _paired_errors(
    estimates: Sequence[Pose], ground_truth: Sequence[Pose]
) -> List[float]:
    if len(estimates) != len(ground_truth):
        raise ValueError(
            f"length mismatch: {len(estimates)} estimates vs {len(ground_truth)} truths"
        )
    if not estimates:
        raise ValueError("empty trajectories")
    return [e.translation_error(g) for e, g in zip(estimates, ground_truth)]


def absolute_trajectory_error(
    estimates: Sequence[Pose], ground_truth: Sequence[Pose]
) -> TrajectoryError:
    """ATE over paired pose sequences (no alignment: VIO shares the
    ground-truth origin by initialization, as in our experiments)."""
    return TrajectoryError.from_errors(_paired_errors(estimates, ground_truth))


def relative_pose_error(
    estimates: Sequence[Pose],
    ground_truth: Sequence[Pose],
    window: int = 15,
) -> TrajectoryError:
    """Drift of the estimated motion over ``window``-frame segments."""
    if window < 1:
        raise ValueError(f"window must be >= 1: {window}")
    if len(estimates) != len(ground_truth):
        raise ValueError("length mismatch")
    if len(estimates) <= window:
        raise ValueError(f"need more than {window} poses")
    errors: List[float] = []
    for i in range(len(estimates) - window):
        est_delta = estimates[i + window].relative_to(estimates[i])
        gt_delta = ground_truth[i + window].relative_to(ground_truth[i])
        errors.append(float(np.linalg.norm(est_delta.position - gt_delta.position)))
    return TrajectoryError.from_errors(errors)


def align_origins(
    estimates: Sequence[Pose], ground_truth: Sequence[Pose]
) -> Tuple[List[Pose], List[Pose]]:
    """Express both trajectories relative to their own first pose.

    Useful when an estimator was initialized with an arbitrary origin.
    """
    if not estimates or not ground_truth:
        raise ValueError("empty trajectories")
    ref_e = estimates[0]
    ref_g = ground_truth[0]
    return (
        [p.relative_to(ref_e) for p in estimates],
        [p.relative_to(ref_g) for p in ground_truth],
    )
