"""Structural Similarity Index Measure (SSIM), Wang et al. 2004 [48].

The standard formulation: an 11x11 Gaussian window (sigma 1.5), stability
constants C1 = (0.01 L)^2 and C2 = (0.03 L)^2, mean SSIM over the image.
Color images are averaged over channels (as the paper's analysis scripts
do for the Table V numbers).  Each channel costs five ``gaussian_filter``
calls, one per filtered field (mu_x, mu_y, E[x^2], E[y^2], E[xy]).
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.perf import profiled

_TRUNCATE = 3.5  # ~11x11 support at sigma=1.5


def _validate(reference: np.ndarray, test: np.ndarray, data_range: float, sigma: float) -> None:
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if not 0 < data_range < np.inf:
        raise ValueError(f"data_range must be positive and finite: {data_range}")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be non-negative and finite: {sigma}")
    if reference.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D image, got shape {reference.shape}")


@profiled("metrics.ssim")
def ssim(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float = 1.0,
    sigma: float = 1.5,
    full: bool = False,
):
    """Mean SSIM between two images in [0, data_range].

    Accepts (H, W) or (H, W, C); returns a float (or the SSIM map when
    ``full`` is True).
    """
    reference = np.asarray(reference, dtype=float)
    test = np.asarray(test, dtype=float)
    _validate(reference, test, data_range, sigma)
    return _ssim(reference, test, data_range, sigma, full)


def _ssim(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float,
    sigma: float,
    full: bool,
):
    """Per-channel recursion, five filter calls per channel."""
    if reference.ndim == 3:
        maps = [
            _ssim(reference[..., c], test[..., c], data_range, sigma, full=True)
            for c in range(reference.shape[2])
        ]
        stacked = np.stack(maps, axis=-1)
        return stacked if full else float(stacked.mean())

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    mu_x = gaussian_filter(reference, sigma, truncate=_TRUNCATE)
    mu_y = gaussian_filter(test, sigma, truncate=_TRUNCATE)
    mu_x2 = mu_x * mu_x
    mu_y2 = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_x2 = gaussian_filter(reference * reference, sigma, truncate=_TRUNCATE) - mu_x2
    sigma_y2 = gaussian_filter(test * test, sigma, truncate=_TRUNCATE) - mu_y2
    sigma_xy = gaussian_filter(reference * test, sigma, truncate=_TRUNCATE) - mu_xy

    numerator = (2 * mu_xy + c1) * (2 * sigma_xy + c2)
    denominator = (mu_x2 + mu_y2 + c1) * (sigma_x2 + sigma_y2 + c2)
    ssim_map = numerator / denominator
    return ssim_map if full else float(ssim_map.mean())
