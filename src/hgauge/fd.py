"""The infinity-Laplacian witness for the gauge N.

The witness is exact, from norm's second-order kernel at unit scale, and
its rounding floor is the gate of every exact check, norm.ROUNDING_GATE
eps times the sum of its terms' magnitudes.  The finite-difference
stencils that cross-check norm's exact calculus live with the tests, in
tests/reference.py.
"""

from __future__ import annotations

import numpy as np

from .group import Point
from .norm import ROUNDING_GATE, _infinity_laplacian, _unit_scale

__all__ = ["infinity_laplacian_witness"]


def infinity_laplacian_witness(p: Point) -> tuple[float, float]:
    """(value, rounding floor) for the infinity-Laplacian of N at p.

    The value, Delta_inf N = 1/2 <grad_H |grad_H N|^2, grad_H N>, is exact
    calculus; the floor is ROUNDING_GATE eps times the sum of its terms'
    magnitudes, and a value beyond it is nonzero.  Both have degree -1, so
    they are evaluated at norm._unit_scale's point and carried back by an
    exact ldexp.  Both are exactly 0 on the central line x = 0, where
    grad_H N = 0; the identity, the one singular point, raises ValueError.
    """
    if p.t == 0 and not np.any(p.x):
        raise ValueError("The infinity-Laplacian of N is undefined at the identity.")
    k, unit = _unit_scale(p)
    value, scale = _infinity_laplacian(unit.x[None, :], np.asarray([unit.t]))
    return float(np.ldexp(value[0], -k)), float(np.ldexp(ROUNDING_GATE * np.finfo(float).eps * scale[0], -k))
