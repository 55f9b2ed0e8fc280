"""Finite-difference differential operators for the sub-Laplacian.

The sub-Laplacian in coordinates is

    L u = sum_j [ d^2_jj u + 2 c_j(x) d^2_jt u ] + (sum_j c_j(x)^2) d^2_tt u,

with the central coefficients c_j from the group layer.  Second derivatives
use 3-point central stencils, mixed ones 4-point cross stencils.  Steps scale
with 1 + ||p||_inf.  Every stencil is one matrix of step multiples, and the
field is evaluated once on all of its shifted copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .group import GroupParams, Point, field_coefficients_batch
from .norm import npow_field, partials_batch

__all__ = [
    "FdConfig",
    "HarmonicityCheck",
    "sub_laplacian_batch",
    "harmonicity_residual_batch",
    "harmonicity_check",
    "fd_gradient",
    "infinity_laplacian_witness",
]

Field = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FdConfig:
    h_base: float = 1e-4        # second differences
    h_first: float = 1e-6       # first differences

    def __post_init__(self) -> None:
        _check_step(self.h_base)
        _check_step(self.h_first)


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
    """
    m, dim = coords.shape
    rows = coords[None, :, :] + shifts[:, None, :] * h[None, :, None]
    vals = np.asarray(field(rows.reshape(-1, dim)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("Non-finite field values in finite-difference stencil.")
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
    c = field_coefficients_batch(coords[:, :-1])
    csq = np.sum(c * c, axis=-1)
    vals = _stencil(field, coords, _sub_laplacian_shifts(dim), h)

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


def sub_laplacian_batch(field: Field, coords: np.ndarray, cfg: FdConfig) -> np.ndarray:
    """Finite-difference sub-Laplacian of field on (m, 2n+1) coordinate rows."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return _sub_laplacian_h(field, coords, _step(coords, cfg.h_base))[0]


def harmonicity_residual_batch(
    coords: np.ndarray, params: GroupParams, cfg: FdConfig
) -> np.ndarray:
    """Sub-Laplacian of N^(2-Q) on rows away from the central line.

    The exact value is 0; the residual is pure discretisation error.
    """
    coords = _off_central_line(coords)
    field = npow_field(params, 2 - params.homogeneous_dim)
    return sub_laplacian_batch(field, coords, cfg)


def _off_central_line(coords: np.ndarray) -> np.ndarray:
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if np.any(~np.any(coords[:, :-1], axis=-1)):
        raise ValueError("harmonicity residual is singular on the central line x = 0.")
    return coords


class HarmonicityCheck(NamedTuple):
    """Per-point Richardson residual of N^(2-Q) and the bounds it must meet."""

    residual: np.ndarray  # Richardson (h, h/2) sub-Laplacian; exactly 0 in theory
    estimate: np.ndarray  # |plain - half|, the truncation estimate
    floor: np.ndarray     # roundoff floor of the residual

    @property
    def passed(self) -> bool:
        return bool(np.all(np.abs(self.residual) <= self.estimate + self.floor))


def harmonicity_check(
    coords: np.ndarray, params: GroupParams, h_base: float
) -> HarmonicityCheck:
    """Richardson residual of N^(2-Q) against truncation plus roundoff.

    The check passes where |residual| <= estimate + floor at every point.
    The floor eps |2-Q| sum_k |w_k v_k| covers rounding in the stencil sums:
    N^(2-Q) amplifies the relative error of N by |2-Q|, and the Richardson
    mix (4 half - plain) / 3 weights the h/2 stencil by 4/3.
    """
    _check_step(h_base)
    coords = _off_central_line(coords)
    power = 2 - params.homogeneous_dim
    field = npow_field(params, power)
    h = _step(coords, h_base)
    plain, plain_mag = _sub_laplacian_h(field, coords, h)
    half, half_mag = _sub_laplacian_h(field, coords, 0.5 * h)
    floor = np.finfo(float).eps * abs(power) * (4.0 * half_mag + plain_mag) / 3.0
    return HarmonicityCheck((4.0 * half - plain) / 3.0, np.abs(plain - half), floor)


def fd_gradient(field: Field, coords: np.ndarray, cfg: FdConfig) -> np.ndarray:
    """Central first differences of field; returns (m, 2n+1) Euclidean gradients."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    dim = coords.shape[1]
    h = _step(coords, cfg.h_first)
    eye = np.eye(dim, dtype=int)
    vals = _stencil(field, coords, np.vstack([eye, -eye]), h)
    return ((vals[:dim] - vals[dim:]) / (2.0 * h)).T


def infinity_laplacian_witness(
    p: Point, params: GroupParams, cfg: FdConfig
) -> tuple[float, float]:
    """(value, noise floor) for the infinity-Laplacian of N at p.

    The value is 0.5 <grad_H |grad_H N|^2, grad_H N>, with the exact inner
    gradient and the outer gradient of |grad_H N|^2 by first differences at
    h_first and h_first/2; the finer one is reported.  The floor combines
    the difference of the two with a roundoff estimate; a value exceeding
    the floor by a clear factor certifies a genuinely nonzero
    infinity-Laplacian.
    """
    if not np.any(p.x):
        raise ValueError("The infinity-Laplacian of N is singular on the central line x = 0.")
    coords = p.coords()[None, :]
    pb = partials_batch(p.x[None, :], np.asarray([p.t]))
    c = field_coefficients_batch(p.x[None, :])[0]

    def grad_sq(rows: np.ndarray) -> np.ndarray:
        return partials_batch(rows[:, :-1], rows[:, -1]).grad_sq

    def value(h_first: float) -> float:
        egrad = fd_gradient(grad_sq, coords, FdConfig(cfg.h_base, h_first))[0]
        return float(0.5 * (egrad[:-1] + c * egrad[-1]) @ pb.horizontal[0])

    coarse, fine = value(cfg.h_first), value(cfg.h_first * 0.5)
    h = _step(coords, cfg.h_first)[0]
    scale = float(pb.grad_sq[0]) * np.sqrt(float(pb.grad_sq[0]))
    roundoff = np.finfo(float).eps * (p.x.size + 1) * scale / h
    floor = abs(coarse - fine) / 3.0 + roundoff
    return fine, float(floor)
