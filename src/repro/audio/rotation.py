"""Exact spherical-harmonic rotation matrices.

Rotating a soundfield by the listener's head orientation is the *rotation*
task of Table VII's audio playback.  Real SH of degree ``l`` span a
(2l+1)-dimensional rotation-invariant subspace, so the rotation operator is
block diagonal.  Each block is recovered exactly by projection: evaluate
the SH basis on a fixed, well-conditioned direction set ``D`` and solve

    R_l @ Y_l(D)^T = Y_l(rot(D))^T

in the least-squares sense -- exact (to machine precision) because both
sides live in the same (2l+1)-dimensional space.  ``D`` and the
pseudo-inverses of ``Y_l(D)`` depend only on the order, so they are
computed once; a rotation then costs one SH evaluation and one product.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.audio.ambisonics import ambisonic_channels, fibonacci_directions, real_sh_matrix

# The smallest Fibonacci set on which every degree-1..3 basis has full
# column rank (seven directions leave degree 3 rank-deficient).
_SAMPLE_COUNT = 8


@lru_cache(maxsize=4)
def _projection(order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample directions, stacked per-degree pseudo-inverses and block mask.

    Row block ``l`` of the (C, N) pseudo-inverse is ``pinv(Y_l(D))``, so
    ``pinv @ Y(rot(D))`` holds every ``R_l^T`` on its diagonal blocks.  The
    arrays are read-only because every call shares them.
    """
    channels = ambisonic_channels(order)
    directions = fibonacci_directions(_SAMPLE_COUNT)
    y = real_sh_matrix(order, directions)
    pinv = np.zeros((channels, len(directions)))
    mask = np.zeros((channels, channels))
    for degree in range(order + 1):
        start = degree * degree
        stop = (degree + 1) ** 2
        pinv[start:stop] = np.linalg.pinv(y[:, start:stop])
        mask[start:stop, start:stop] = 1.0
    for constant in (directions, pinv, mask):
        constant.setflags(write=False)
    return directions, pinv, mask


def sh_rotation_matrix(order: int, rotation: np.ndarray) -> np.ndarray:
    """Block-diagonal SH rotation matrix for a 3x3 rotation.

    Applying the returned (C, C) matrix to an ACN/N3D soundfield rotates
    the encoded scene by ``rotation`` (world-frame rotation of sources).
    """
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (3, 3):
        raise ValueError(f"expected a 3x3 rotation, got {rotation.shape}")
    directions, pinv, mask = _projection(order)
    result = (pinv @ real_sh_matrix(order, directions @ rotation.T)).T * mask
    result[0, 0] = 1.0
    return result


def rotate_soundfield(soundfield: np.ndarray, order: int, rotation: np.ndarray) -> np.ndarray:
    """Rotate a (channels, samples) soundfield block by a 3x3 rotation."""
    matrix = sh_rotation_matrix(order, rotation)
    if soundfield.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"soundfield has {soundfield.shape[0]} channels, expected {matrix.shape[0]}"
        )
    return matrix @ soundfield


def zoom_soundfield(soundfield: np.ndarray, strength: float) -> np.ndarray:
    """First-order acoustic zoom along +x (the look direction).

    The classic Lund/Zotter dominance operator mixes W (ACN 0) and X
    (ACN 3): sources ahead are emphasized, sources behind attenuated.
    ``strength`` in [-1, 1]; 0 is identity.
    """
    if not -1.0 <= strength <= 1.0:
        raise ValueError(f"zoom strength out of [-1, 1]: {strength}")
    if soundfield.shape[0] < 4:
        raise ValueError("zoom needs at least first-order content (4 channels)")
    out = soundfield.copy()
    w = soundfield[0]
    x = soundfield[3]
    # N3D first-order dominance (unit gain at strength 0).
    s = strength
    out[0] = w + s / np.sqrt(3.0) * x
    out[3] = x + s * np.sqrt(3.0) * w
    norm = 1.0 / np.sqrt(1.0 + s * s)
    out[0] *= norm
    out[3] *= norm
    return out
