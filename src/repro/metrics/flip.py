"""FLIP: a difference evaluator for alternating images (Andersson et al.
2020, [52] in the paper).

FLIP models what an observer notices when flipping between two images: a
**color pipeline** (opponent color space, spatial CSF filtering, hue-aware
HyAB distance) combined with a **feature pipeline** (edge and point
differences from Gaussian-derivative filters), merged per pixel into an
error in [0, 1].

This implementation follows the published structure with two documented
simplifications: CSF filtering uses Gaussian approximations of the
achromatic/chromatic CSFs, and the perceptual color space is YCxCz-like
opponent built from linearized sRGB.  The paper reports 1-FLIP so larger
is better; :func:`one_minus_flip` matches that convention.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.perf import span

# Pixels per degree of a typical desktop viewing setup (the FLIP default
# assumes 0.7 m viewing distance on a 0.5 m wide 3840-px monitor ~ 67 ppd).
DEFAULT_PIXELS_PER_DEGREE = 67.0

# Gaussian sigmas in pixels: achromatic sharpest, blue-yellow softest.
_CSF_SIGMAS = (0.35, 1.0, 1.4)


def _srgb_to_linear(srgb: np.ndarray) -> np.ndarray:
    srgb = np.clip(srgb, 0.0, 1.0)
    return np.where(srgb <= 0.04045, srgb / 12.92, ((srgb + 0.055) / 1.055) ** 2.4)


def _to_opponent(image: np.ndarray) -> np.ndarray:
    """Linear RGB -> opponent (achromatic, red-green, blue-yellow)."""
    linear = _srgb_to_linear(image)
    r, g, b = linear[..., 0], linear[..., 1], linear[..., 2]
    y = 0.2126 * r + 0.7152 * g + 0.0722 * b
    rg = r - g
    by = 0.5 * (r + g) - b
    return np.stack([y, rg, by], axis=-1)


def _csf_filter(opponent: np.ndarray, ppd: float) -> np.ndarray:
    """Approximate CSF band-limiting: chromatic channels blur more."""
    from scipy.ndimage import gaussian_filter

    scale = ppd / DEFAULT_PIXELS_PER_DEGREE
    out = np.empty_like(opponent)
    for c, sigma in enumerate(_CSF_SIGMAS):
        out[..., c] = gaussian_filter(opponent[..., c], sigma * max(scale, 0.25))
    return out


def _hyab(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hue-angle-aware HyAB distance in the opponent space."""
    diff = a - b
    return np.abs(diff[..., 0]) + np.sqrt(diff[..., 1] ** 2 + diff[..., 2] ** 2)


def _edges_points(y: np.ndarray, sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    from scipy.ndimage import gaussian_filter

    gx = gaussian_filter(y, sigma, order=(0, 1))
    gy = gaussian_filter(y, sigma, order=(1, 0))
    edge = np.hypot(gx, gy)
    gxx = gaussian_filter(y, sigma, order=(0, 2))
    gyy = gaussian_filter(y, sigma, order=(2, 0))
    point = np.abs(gxx + gyy)
    return edge, point


def _feature_difference(ref_y: np.ndarray, test_y: np.ndarray, ppd: float) -> np.ndarray:
    """Edge + point feature differences on the achromatic channel."""
    sigma = 0.5 * ppd / DEFAULT_PIXELS_PER_DEGREE + 0.25

    edge_ref, point_ref = _edges_points(ref_y, sigma)
    edge_test, point_test = _edges_points(test_y, sigma)
    edge_diff = np.abs(edge_ref - edge_test)
    point_diff = np.abs(point_ref - point_test)
    # Normalize each by a soft maximum so the result lands in [0, 1].
    def soft_norm(d: np.ndarray) -> np.ndarray:
        scale = max(float(np.percentile(np.maximum(edge_ref, edge_test), 99)), 1e-3)
        return np.clip(d / scale, 0.0, 1.0)

    combined = np.maximum(soft_norm(edge_diff), soft_norm(point_diff))
    return combined


def flip(
    reference: np.ndarray,
    test: np.ndarray,
    pixels_per_degree: float = DEFAULT_PIXELS_PER_DEGREE,
    full: bool = False,
):
    """Mean FLIP error in [0, 1] (0 = identical images).

    Inputs are (H, W, 3) sRGB images in [0, 1].
    """
    with span("metrics.flip"):
        reference = np.asarray(reference, dtype=float)
        test = np.asarray(test, dtype=float)
        if reference.shape != test.shape:
            raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
        if reference.ndim != 3 or reference.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) images, got {reference.shape}")
        if not 0 < pixels_per_degree < np.inf:
            raise ValueError(f"pixels_per_degree must be positive and finite: {pixels_per_degree}")

        opp_ref = _csf_filter(_to_opponent(reference), pixels_per_degree)
        opp_test = _csf_filter(_to_opponent(test), pixels_per_degree)
        color_diff = _hyab(opp_ref, opp_test)
        # Map HyAB distance to [0, 1) with an exponential soft knee (the
        # published metric uses a calibrated power remap; the knee constant is
        # chosen so a full black<->white flip maps to ~0.95).
        color_error = 1.0 - np.exp(-3.0 * color_diff)

        feature_error = _feature_difference(opp_ref[..., 0], opp_test[..., 0], pixels_per_degree)

        # FLIP's merge: color error amplified where feature differences exist.
        error = color_error ** (1.0 - feature_error)
        error = np.clip(error, 0.0, 1.0)
        return error if full else float(error.mean())


def one_minus_flip(reference: np.ndarray, test: np.ndarray, **kwargs) -> float:
    """1 - FLIP, the paper's Table V convention (1 = identical)."""
    return 1.0 - flip(reference, test, **kwargs)
