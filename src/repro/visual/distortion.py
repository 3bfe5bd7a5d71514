"""Mesh-based lens distortion and chromatic aberration correction [39].

HMD lenses introduce pincushion distortion and chromatic aberration; the
runtime pre-applies the inverse (barrel) warp so the image looks correct
through the lens.  Like the production TimeWarp shader, the warp is
evaluated on a coarse mesh and bilinearly interpolated across pixels --
exact per-pixel evaluation is available for testing.

The mesh interpolation is a separable numpy port of the 2-D linear
arithmetic of scipy's ``RegularGridInterpolator`` (RGI) and returns its
doubles bit for bit (``tests/test_scipy_parity.py``): knot intervals and
offsets are found once per row and once per column rather than once per
pixel, and the four corner terms are summed in RGI's order.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

import numpy as np

from repro.visual.reprojection import bilinear_sample

# Default radial coefficients (barrel pre-correction for a typical HMD
# lens) and per-channel chromatic scale factors (red refracts least).
DEFAULT_K1 = -0.22
DEFAULT_K2 = -0.04
DEFAULT_CHROMATIC_SCALES = (0.994, 1.0, 1.008)  # R, G, B


def _check_warp(width: int, height: int, k1: float, k2: float, scale: float) -> None:
    """Reject a warp whose coordinates would be empty or non-finite."""
    if width < 1 or height < 1:
        raise ValueError(f"image size must be at least 1x1, got {width}x{height}")
    if not (np.isfinite(k1) and np.isfinite(k2)):
        raise ValueError(f"radial coefficients must be finite, got k1={k1}, k2={k2}")
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")


def radial_warp_coordinates(
    width: int, height: int, k1: float, k2: float, scale: float = 1.0
) -> np.ndarray:
    """Per-pixel source coordinates for a radial warp, exact evaluation.

    The warp maps normalized radius r -> r * (1 + k1 r^2 + k2 r^4),
    optionally scaled per color channel (chromatic aberration).  Radius is
    normalized by the half-diagonal so r <= 1 everywhere and the default
    coefficients keep the mapping monotonic (no fold-over at the corners).
    """
    _check_warp(width, height, k1, k2, scale)
    u, v = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    cx, cy = width / 2.0, height / 2.0
    norm = float(np.hypot(cx, cy))
    x = (u - cx) / norm
    y = (v - cy) / norm
    r2 = (x * x + y * y) * scale * scale
    factor = 1.0 + k1 * r2 + k2 * r2 * r2
    return np.stack([cx + x * factor * norm, cy + y * factor * norm], axis=-1)


def mesh_warp_coordinates(
    width: int, height: int, k1: float, k2: float, scale: float = 1.0, mesh_step: int = 16
) -> np.ndarray:
    """Mesh-based approximation of :func:`radial_warp_coordinates`.

    Evaluates the warp on an (H/step x W/step) grid and bilinearly
    interpolates -- the structure of the real mesh-based shader.
    """
    if mesh_step < 2:
        raise ValueError("mesh_step must be >= 2")
    _check_warp(width, height, k1, k2, scale)
    xs, columns = _mesh_axis(width, mesh_step)
    ys, rows = _mesh_axis(height, mesh_step)
    cx, cy = width / 2.0, height / 2.0
    norm = float(np.hypot(cx, cy))
    gx, gy = np.meshgrid(xs, ys)
    x = (gx - cx) / norm
    y = (gy - cy) / norm
    r2 = (x * x + y * y) * scale * scale
    factor = 1.0 + k1 * r2 + k2 * r2 * r2
    mesh = np.stack([cx + x * factor * norm, cy + y * factor * norm], axis=-1)
    # Interpolate mesh -> full resolution: RGI's sum over the cell's
    # corners, from 0.0, lower corner first, the column corner fastest,
    # each term the knot value times the row weight times the column weight.
    coords = np.zeros((height, width, 2))
    for (row_knots, row_weights), (column_knots, column_weights) in itertools.product(
        rows, columns
    ):
        coords += (
            mesh[row_knots[:, None], column_knots]
            * row_weights[:, None, None]
            * column_weights[:, None]
        )
    return coords


def _mesh_axis(size: int, step: int) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """Knots along one image axis and each pixel's corners on it.

    The knots sit every ``step`` pixels plus one on the last pixel.  A
    pixel's corners are (knot index, weight) pairs: its interval's lower
    knot weighted ``1 - t`` and upper knot weighted ``t``, ``t`` its offset
    in the interval as a fraction, with RGI's interval rule (closed below,
    the last one closed at both ends).  A one-knot axis has one corner of
    weight 1; RGI interpolates along the other axis alone there, which sums
    to the same doubles because no mesh value is -0.0.
    """
    knots = np.unique(np.concatenate([np.arange(0, size, step), [size - 1]])).astype(float)
    pixels = np.arange(size, dtype=float)
    if len(knots) == 1:
        return knots, [(np.zeros(size, dtype=int), np.ones(size))]
    lower = np.minimum(np.searchsorted(knots, pixels, side="right") - 1, len(knots) - 2)
    t = (pixels - knots[lower]) / (knots[lower + 1] - knots[lower])
    return knots, [(lower, 1 - t), (lower + 1, t)]


def apply_lens_correction(
    image: np.ndarray,
    k1: float = DEFAULT_K1,
    k2: float = DEFAULT_K2,
    chromatic_scales: Sequence[float] = DEFAULT_CHROMATIC_SCALES,
    mesh_step: int = 16,
) -> np.ndarray:
    """Barrel pre-distortion with per-channel chromatic correction.

    Each color channel is warped with a slightly different radial scale so
    that, after the lens's wavelength-dependent magnification, the channels
    land on top of each other.
    """
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
    if len(chromatic_scales) != 3:
        raise ValueError("need exactly 3 chromatic scales (R, G, B)")
    height, width = image.shape[:2]
    out = np.empty_like(image)
    for channel, scale in enumerate(chromatic_scales):
        coords = mesh_warp_coordinates(width, height, k1, k2, scale=scale, mesh_step=mesh_step)
        out[..., channel] = bilinear_sample(image[..., channel], coords)
    return out


def mesh_approximation_error(
    width: int, height: int, k1: float = DEFAULT_K1, k2: float = DEFAULT_K2, mesh_step: int = 16
) -> Tuple[float, float]:
    """(mean, max) pixel error of the mesh warp vs exact evaluation."""
    exact = radial_warp_coordinates(width, height, k1, k2)
    mesh = mesh_warp_coordinates(width, height, k1, k2, mesh_step=mesh_step)
    err = np.linalg.norm(exact - mesh, axis=-1)
    return float(err.mean()), float(err.max())
