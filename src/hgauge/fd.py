"""The infinity-Laplacian witness for the gauge N.

The witness is exact, from norm's second-order kernel, and its rounding
floor FLOOR_EPS eps |grad_H N|^3 / N is fixed a priori.  Only the identity
is singular: the gauge is smooth everywhere else, the central line x = 0
included.  A witness at the identity raises ValueError, and one at a scale
outside its kernel's range RuntimeError, a numerical breakdown rather than
bad input.  The finite-difference stencils that cross-check norm's exact
calculus live with the tests, in tests/reference.py.
"""

from __future__ import annotations

import numpy as np

from .group import Point
from .norm import _infinity_laplacian

__all__ = ["infinity_laplacian_witness"]

# the witness's rounding floor, in units of eps |grad_H N|^3 / N; on the
# infinity-harmonic slices (t = 0, R = 0 or S = 0) the exact value reached
# 9.4 such units over 8e5 rows at n = 2, 3, 6, 10
FLOOR_EPS = 64.0


def infinity_laplacian_witness(p: Point) -> tuple[float, float]:
    """(value, rounding floor) for the infinity-Laplacian of N at p.

    The value, Delta_inf N = 1/2 <grad_H |grad_H N|^2, grad_H N>, is exact;
    the floor FLOOR_EPS eps |grad_H N|^3 / N has its degree -1, and a value
    beyond it by a clear factor certifies a nonzero infinity-Laplacian.  Both
    are exactly 0 on the central line x = 0, where grad_H N = 0.  The
    identity raises ValueError, and a scale max(||x||_inf, sqrt|t|) outside
    [1e-29, 1e29], where the kernel would over- or underflow, RuntimeError.
    """
    if p.t == 0 and not np.any(p.x):
        raise ValueError("The infinity-Laplacian of N is undefined at the identity.")
    # the kernel's products of degree 10 in the scale stay normal floats here
    scale = max(np.max(np.abs(p.x)), np.sqrt(abs(p.t)))
    if not 1e-29 <= scale <= 1e29:
        raise RuntimeError(f"The infinity-Laplacian kernel over- or underflows at scale {scale:.3g}.")
    value, g_sq, nn = _infinity_laplacian(p.x[None, :], np.asarray([p.t]))
    floor = FLOOR_EPS * np.finfo(float).eps * g_sq * np.sqrt(g_sq) / nn
    return float(value[0]), float(floor[0])
