"""Finite-difference sub-Laplacian and gradients, and the infinity-Laplacian witness.

The sub-Laplacian in coordinates is

    L u = sum_j [ d^2_jj u + 2 c_j(x) d^2_jt u ] + (sum_j c_j(x)^2) d^2_tt u,

with the central coefficients c_j from the group layer.  Second derivatives
use 3-point central stencils, mixed ones 4-point cross stencils.  Steps scale
with 1 + ||p||_inf.  Every stencil is one matrix of step multiples, and the
field is evaluated once on all of its shifted copies.  The stencils take
their base step from the caller: they are the independent full-space
cross-checks of norm's exact calculus.  (m, 2n+1) coordinate rows fix n.
The infinity-Laplacian witness is exact, from norm's second-order kernel,
and its rounding floor FLOOR_EPS eps |grad_H N|^3 / N is fixed a priori.

Only the identity is singular: the gauge is smooth everywhere else, the
central line x = 0 included.  A stencil or witness that meets the identity
raises ValueError; a stencil that overflows anywhere else, or a witness at a
scale outside its kernel's range, raises RuntimeError, a numerical
breakdown rather than bad input.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .group import Point, field_coefficients_batch
from .norm import _infinity_laplacian

__all__ = [
    "sub_laplacian_batch",
    "fd_gradient",
    "infinity_laplacian_witness",
]

Field = Callable[[np.ndarray], np.ndarray]

# the witness's rounding floor, in units of eps |grad_H N|^3 / N; on the
# infinity-harmonic slices (t = 0, R = 0 or S = 0) the exact value reached
# 9.4 such units over 8e5 rows at n = 2, 3, 6, 10
FLOOR_EPS = 64.0


def _step(coords: np.ndarray, base: float) -> np.ndarray:
    """Per-row step base * (1 + ||p||_inf); coords has shape (m, dim)."""
    if not (base > 0 and math.isfinite(base)):
        raise ValueError(f"Finite-difference steps must be finite and positive, got {base!r}.")
    h = base * (1.0 + np.max(np.abs(coords), axis=-1))
    if np.any(coords + h[:, None] == coords):
        raise ValueError("Finite-difference step underflows at this scale.")
    return h


def _stencil(field: Field, coords: np.ndarray, shifts: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Field at coords + shifts[k] * h for every stencil row k; returns (K, m).

    shifts is a (K, 2n+1) integer matrix of step multiples in {-1, 0, 1}, so
    every shifted coordinate is an exact coords +- h, or coords itself.
    Non-finite field values raise ValueError when a stencil row is the
    identity and RuntimeError otherwise.
    """
    m, dim = coords.shape
    rows = coords[None, :, :] + shifts[:, None, :] * h[None, :, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.asarray(field(rows.reshape(-1, dim)), dtype=float)
    if not np.all(np.isfinite(vals)):
        msg = "Non-finite field values in finite-difference stencil"
        if not np.all(np.any(rows, axis=-1)):
            raise ValueError(f"{msg}: it meets the identity.")
        raise RuntimeError(f"{msg}: the field overflows.")
    return vals.reshape(len(shifts), m)


def _sub_laplacian_shifts(dim: int) -> np.ndarray:
    """Centre, (+j, -j) pairs, cross quadruples (+-j, +-t), then (+t, -t)."""
    eye = np.eye(dim, dtype=int)
    hor, t = eye[:-1], eye[-1]
    axial = np.stack([hor, -hor], axis=1).reshape(-1, dim)
    cross = np.stack([hor + t, hor - t, -hor + t, -hor - t], axis=1).reshape(-1, dim)
    return np.vstack([np.zeros_like(t), axial, cross, t, -t])


def sub_laplacian_batch(field: Field, coords: np.ndarray, h: float) -> np.ndarray:
    """Finite-difference sub-Laplacian of field on (m, 2n+1) coordinate rows, base step h."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    h = _step(coords, h)
    m, dim = coords.shape
    k = dim - 1  # horizontal dimension 2n
    vals = _stencil(field, coords, _sub_laplacian_shifts(dim), h)
    c = field_coefficients_batch(coords[:, :-1])
    csq = np.sum(c * c, axis=-1)

    h2 = h * h
    center = vals[0]
    out = np.zeros(m)
    pos = 1
    for j in range(k):
        out += (vals[pos] + vals[pos + 1] - 2.0 * center) / h2
        pos += 2
    for j in range(k):
        vpp, vpm, vmp, vmm = vals[pos], vals[pos + 1], vals[pos + 2], vals[pos + 3]
        cross = (vpp - vpm - vmp + vmm) / (4.0 * h2)
        out += 2.0 * c[:, j] * cross
        pos += 4
    out += csq * (vals[pos] + vals[pos + 1] - 2.0 * center) / h2
    return out


def fd_gradient(field: Field, coords: np.ndarray, h: float) -> np.ndarray:
    """Central first differences of field at base step h; returns (m, 2n+1) Euclidean gradients."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    dim = coords.shape[1]
    steps = _step(coords, h)
    eye = np.eye(dim, dtype=int)
    vals = _stencil(field, coords, np.vstack([eye, -eye]), steps)
    return ((vals[:dim] - vals[dim:]) / (2.0 * steps)).T


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
