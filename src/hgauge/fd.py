"""Finite-difference differential operators for the sub-Laplacian.

The sub-Laplacian in coordinates is

    L u = sum_j [ d^2_jj u + 2 c_j(x) d^2_jt u ] + (sum_j c_j(x)^2) d^2_tt u,

with the central coefficients c_j from the group layer.  Second derivatives
use 3-point central stencils, mixed ones 4-point cross stencils.  Steps scale
with 1 + ||p||_inf.  Every stencil is one matrix of step multiples, and the
field is evaluated once on all of its shifted copies.  Every operator takes
its base step; two are fixed here: H_FIRST for the first differences of the
infinity-Laplacian witness and HARMONICITY_STEP for the Richardson check of
N^(2-Q) that `check fundamental` runs.  The group is read off the input:
(m, 2n+1) coordinate rows, or the Point, fix n and Q = 2n + 2.

Only the identity is singular: the gauge is smooth everywhere else, the
central line x = 0 included.  A stencil that meets the identity raises
ValueError; one whose field overflows anywhere else raises RuntimeError, a
numerical breakdown rather than bad input.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .group import Point, field_coefficients_batch
from .norm import npow_field, partials_batch

__all__ = [
    "HarmonicityCheck",
    "sub_laplacian_batch",
    "harmonicity_check",
    "fd_gradient",
    "infinity_laplacian_witness",
]

Field = Callable[[np.ndarray], np.ndarray]

H_FIRST = 1e-6  # the witness's first differences, at H_FIRST and H_FIRST / 2
HARMONICITY_STEP = 1.6e-3  # check fundamental's Richardson pair, h and h / 2


def _check_step(base: float) -> None:
    if not (base > 0 and math.isfinite(base)):
        raise ValueError(f"Finite-difference steps must be finite and positive, got {base!r}.")


def _step(coords: np.ndarray, base: float) -> np.ndarray:
    """Per-row step base * (1 + ||p||_inf); coords has shape (m, dim)."""
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


def _sub_laplacian_h(
    field: Field, coords: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One-step evaluation on (m, 2n+1) rows with (m,) steps.

    Returns the stencil sum and sum_k |w_k v_k| over its weights w_k and
    field values v_k, the scale of its rounding error.
    """
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

    av = np.abs(vals)
    cross_abs = av[1 + 2 * k : 1 + 6 * k].reshape(k, 4, m).sum(axis=1)
    mag = (
        av[0] * (2 * k + 2.0 * csq)
        + av[1 : 1 + 2 * k].sum(axis=0)
        + 0.5 * np.sum(np.abs(c).T * cross_abs, axis=0)
        + csq * (av[-2] + av[-1])
    ) / h2
    return out, mag


def sub_laplacian_batch(field: Field, coords: np.ndarray, h: float) -> np.ndarray:
    """Finite-difference sub-Laplacian of field on (m, 2n+1) coordinate rows, base step h."""
    _check_step(h)
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return _sub_laplacian_h(field, coords, _step(coords, h))[0]


class HarmonicityCheck(NamedTuple):
    """Per-point Richardson residual of N^(2-Q) and the bounds it must meet."""

    residual: np.ndarray  # Richardson (h, h/2) sub-Laplacian; exactly 0 in theory
    estimate: np.ndarray  # |plain - half|, the truncation estimate
    floor: np.ndarray     # roundoff floor of the residual

    @property
    def passed(self) -> bool:
        return bool(np.all(np.abs(self.residual) <= self.estimate + self.floor))


def harmonicity_check(coords: np.ndarray, h_base: float) -> HarmonicityCheck:
    """Richardson residual of N^(2-Q) against truncation plus roundoff.

    Q = 2n + 2 is read off the (m, 2n+1) rows: 2 - Q = 1 - their width.

    The check passes where |residual| <= estimate + floor at every point.
    The floor eps |2-Q| sum_k |w_k v_k| covers rounding in the stencil sums:
    N^(2-Q) amplifies the relative error of N by |2-Q|, and the Richardson
    mix (4 half - plain) / 3 weights the h/2 stencil by 4/3.
    """
    _check_step(h_base)
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    power = 1 - coords.shape[1]
    field = npow_field(power)
    h = _step(coords, h_base)
    plain, plain_mag = _sub_laplacian_h(field, coords, h)
    half, half_mag = _sub_laplacian_h(field, coords, 0.5 * h)
    floor = np.finfo(float).eps * abs(power) * (4.0 * half_mag + plain_mag) / 3.0
    return HarmonicityCheck((4.0 * half - plain) / 3.0, np.abs(plain - half), floor)


def fd_gradient(field: Field, coords: np.ndarray, h: float) -> np.ndarray:
    """Central first differences of field at base step h; returns (m, 2n+1) Euclidean gradients."""
    _check_step(h)
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    dim = coords.shape[1]
    steps = _step(coords, h)
    eye = np.eye(dim, dtype=int)
    vals = _stencil(field, coords, np.vstack([eye, -eye]), steps)
    return ((vals[:dim] - vals[dim:]) / (2.0 * steps)).T


def infinity_laplacian_witness(p: Point) -> tuple[float, float]:
    """(value, noise floor) for the infinity-Laplacian of N at p.

    The value is 0.5 <grad_H |grad_H N|^2, grad_H N>, with the exact inner
    gradient and the outer gradient of |grad_H N|^2 by first differences at
    H_FIRST and H_FIRST/2; the finer one is reported.  The floor combines
    the difference of the two with a roundoff estimate; a value exceeding
    the floor by a clear factor certifies a genuinely nonzero
    infinity-Laplacian.  On the central line x = 0, where grad_H N = 0, both
    are exactly 0; the identity raises ValueError, and a gradient that
    overflows elsewhere RuntimeError.
    """
    if not np.any(p.x):
        if p.t == 0:
            raise ValueError("The infinity-Laplacian of N is undefined at the identity.")
        return 0.0, 0.0
    coords = p.coords()[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        pb = partials_batch(p.x[None, :], np.asarray([p.t]))
        horizontal = pb.horizontal[0]
    if not np.all(np.isfinite(horizontal)):
        raise RuntimeError("The horizontal gradient of N overflows at this point.")
    c = field_coefficients_batch(p.x)

    def grad_sq(rows: np.ndarray) -> np.ndarray:
        return partials_batch(rows[:, :-1], rows[:, -1]).grad_sq

    def value(h: float) -> float:
        egrad = fd_gradient(grad_sq, coords, h)[0]
        return float(0.5 * (egrad[:-1] + c * egrad[-1]) @ horizontal)

    coarse, fine = value(H_FIRST), value(H_FIRST * 0.5)
    h = _step(coords, H_FIRST)[0]
    scale = float(pb.grad_sq[0]) * np.sqrt(float(pb.grad_sq[0]))
    roundoff = np.finfo(float).eps * (p.x.size + 1) * scale / h
    floor = abs(coarse - fine) / 3.0 + roundoff
    return fine, float(floor)
