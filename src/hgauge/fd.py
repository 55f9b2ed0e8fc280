"""The infinity-Laplacian witness for the gauge N.

The witness is exact, from norm's second-order kernel at unit scale, and
reports its rounding ratio, norm._rounding_ratio's |value| / (eps sum
|terms|), the unit of every exact check's norm.ROUNDING_GATE.  The
finite-difference stencils that cross-check norm's exact calculus live with
the tests, in tests/reference.py.
"""

from __future__ import annotations

import numpy as np

from .group import Point
from .norm import _infinity_laplacian, _rounding_ratio, _unit_scale

__all__ = ["infinity_laplacian_witness"]


def infinity_laplacian_witness(p: Point) -> tuple[float, float]:
    """(value, rounding ratio) for the infinity-Laplacian of N at p.

    The value, Delta_inf N = 1/2 <grad_H |grad_H N|^2, grad_H N>, is exact
    calculus, of degree -1: it is evaluated at norm._unit_scale's point and
    carried back by an exact ldexp.  The rounding ratio has degree 0 and is
    formed there; a value whose ratio exceeds norm.ROUNDING_GATE is nonzero.
    Both are exactly 0 on the central line x = 0, where grad_H N = 0; the
    identity, the one singular point, raises ValueError.
    """
    if p.t == 0 and not np.any(p.x):
        raise ValueError("The infinity-Laplacian of N is undefined at the identity.")
    k, unit = _unit_scale(p)
    value, scale = _infinity_laplacian(unit.x[None, :], np.asarray([unit.t]))
    return float(np.ldexp(value[0], -k)), float(_rounding_ratio(value[0], scale[0]))
