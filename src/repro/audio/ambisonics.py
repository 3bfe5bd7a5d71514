"""Real spherical harmonics and higher-order ambisonic (HOA) encoding.

Channels follow the ACN ordering with N3D normalization, the convention of
libspatialaudio (the paper's audio implementation [41]).  Directions are
unit vectors in the head frame (x forward, y left, z up).

Encoding a mono source ``s`` from direction ``d`` produces the soundfield
``B[c, t] = Y_c(d) * s[t]`` -- the ``Y[j][i] = D x X[j]`` mapping of Table
VII's *encoding* row; multiple sources sum channel-wise (*summation*).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

import numpy as np

# Every real SH of degree <= 3 (N3D, ACN order) is ``k * a * q(x, y, z)``:
# a constant ``k``, a linear factor ``a`` ("" for none) and a polynomial
# ``q`` of degree <= 2 given as {monomial: coefficient}, each monomial
# spelled as its factors ("xx" is x*x, "" is 1).
_SH_FACTORS = (
    (1.0, "", {"": 1.0}),                                      # ACN 0: Y_0^0
    (math.sqrt(3.0), "", {"y": 1.0}),                          # ACN 1
    (math.sqrt(3.0), "", {"z": 1.0}),                          # ACN 2
    (math.sqrt(3.0), "", {"x": 1.0}),                          # ACN 3
    (math.sqrt(15.0), "x", {"y": 1.0}),                        # ACN 4
    (math.sqrt(15.0), "y", {"z": 1.0}),                        # ACN 5
    (math.sqrt(5.0) / 2.0, "", {"zz": 3.0, "": -1.0}),         # ACN 6
    (math.sqrt(15.0), "x", {"z": 1.0}),                        # ACN 7
    (math.sqrt(15.0) / 2.0, "", {"xx": 1.0, "yy": -1.0}),      # ACN 8
    (math.sqrt(35.0 / 8.0), "y", {"xx": 3.0, "yy": -1.0}),     # ACN 9
    (math.sqrt(105.0), "x", {"yz": 1.0}),                      # ACN 10
    (math.sqrt(21.0 / 8.0), "y", {"zz": 5.0, "": -1.0}),       # ACN 11
    (math.sqrt(7.0) / 2.0, "z", {"zz": 5.0, "": -3.0}),        # ACN 12
    (math.sqrt(21.0 / 8.0), "x", {"zz": 5.0, "": -1.0}),       # ACN 13
    (math.sqrt(105.0) / 2.0, "z", {"xx": 1.0, "yy": -1.0}),    # ACN 14
    (math.sqrt(35.0 / 8.0), "x", {"xx": 1.0, "yy": -3.0}),     # ACN 15
)


def ambisonic_channels(order: int) -> int:
    """Number of HOA channels for a given order: (order + 1)^2."""
    if order < 0:
        raise ValueError(f"order must be >= 0: {order}")
    return (order + 1) ** 2


def _monomial_index(monomial: str) -> int:
    """Column of a monomial in ``[1, x, y, z, xx, xy, xz, yx, ..., zz]``."""
    index = 0
    for factor in monomial:
        index = 3 * index + "xyz".index(factor)
    return (3 ** len(monomial) - 1) // 2 + index


@lru_cache(maxsize=4)
def _sh_factors(order: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_SH_FACTORS`` of the first (order+1)^2 channels, as arrays.

    Returns the column of each linear factor in ``[1, x, y, z]`` (C,), the
    constants (C,) and the coefficients (13, C) of each ``q`` on the
    monomials of degree <= 2.  Read-only.
    """
    factors = _SH_FACTORS[: ambisonic_channels(order)]
    linear = np.array([_monomial_index(a) for _k, a, _q in factors])
    constants = np.array([k for k, _a, _q in factors])
    quadratic = np.zeros((13, len(factors)))
    for channel, (_k, _a, q) in enumerate(factors):
        for monomial, coefficient in q.items():
            quadratic[_monomial_index(monomial), channel] = coefficient
    for array in (linear, constants, quadratic):
        array.setflags(write=False)
    return linear, constants, quadratic


def real_sh_matrix(order: int, directions: np.ndarray) -> np.ndarray:
    """Real SH values Y (N3D, ACN order) for unit ``directions`` (N, 3).

    Supports orders 0-3 (16 channels), the range used by HOA audio.
    Returns shape (N, (order+1)^2), every channel from one product:
    ``(k * a) * q`` with all the ``q`` as one monomial-coefficient product.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"order must be in [0, 3]: {order}")
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(d, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("directions must be nonzero")
    u = d / norms[:, None]
    n = len(u)
    powers = np.concatenate([np.ones((n, 1)), u], axis=1)  # [1, x, y, z]
    monomials = np.concatenate([powers, (u[:, :, None] * u[:, None, :]).reshape(n, 9)], axis=1)
    linear, constants, quadratic = _sh_factors(order)
    return (powers[:, linear] * constants) * (monomials @ quadratic)


def encode_block(signal: np.ndarray, direction: np.ndarray, order: int) -> np.ndarray:
    """Encode one mono block from one direction into HOA channels.

    Returns shape (channels, len(signal)).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError("signal must be mono (1-D)")
    gains = real_sh_matrix(order, np.asarray(direction, dtype=float))[0]
    return np.outer(gains, signal)


def decode_matrix(order: int, speaker_directions: np.ndarray) -> np.ndarray:
    """Pseudoinverse (mode-matching) decoder to a virtual speaker layout.

    Returns shape (n_speakers, channels): speaker signals = D @ soundfield.
    """
    y = real_sh_matrix(order, speaker_directions)  # (S, C)
    return np.linalg.pinv(y.T)


def fibonacci_directions(count: int) -> np.ndarray:
    """A near-uniform spherical point set (virtual speaker layout)."""
    if count < 4:
        raise ValueError(f"need at least 4 directions: {count}")
    indices = np.arange(count) + 0.5
    phi = np.arccos(1 - 2 * indices / count)
    theta = np.pi * (1 + 5**0.5) * indices
    return np.stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1
    )
