"""Finite-difference differential operators for the sub-Laplacian.

The sub-Laplacian in coordinates is

    L u = sum_j [ d^2_jj u + 2 c_j(x) d^2_jt u ] + (sum_j c_j(x)^2) d^2_tt u,

with the central coefficients c_j from the group layer.  Second derivatives
use 3-point central stencils, mixed ones 4-point cross stencils.  Steps scale
with 1 + ||p||_inf.  Richardson extrapolation (h, h/2) is off by default and
enabled where fourth-order accuracy is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "infinity_laplacian",
    "infinity_laplacian_N",
    "infinity_laplacian_witness",
]

Field = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FdConfig:
    h_base: float = 1e-4        # second differences
    h_first: float = 1e-6       # first differences
    richardson: bool = False

    def __post_init__(self) -> None:
        if not (self.h_base > 0 and self.h_first > 0):
            raise ValueError("Finite-difference steps must be positive.")


def _step(coords: np.ndarray, base: float) -> np.ndarray:
    """Per-row step base * (1 + ||p||_inf); coords has shape (m, dim)."""
    h = base * (1.0 + np.max(np.abs(coords), axis=-1))
    if np.any(coords + h[:, None] == coords):
        raise ValueError("Finite-difference step underflows at this scale.")
    return h


def _eval(field: Field, coords: np.ndarray) -> np.ndarray:
    vals = np.asarray(field(coords), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("Non-finite field values in finite-difference stencil.")
    return vals


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

    # stencil layout per row: center, (+j, -j) pairs, cross quadruples, (+t, -t)
    offsets = [np.zeros((m, dim))]
    for j in range(k):
        for sj in (+1.0, -1.0):
            o = np.zeros((m, dim))
            o[:, j] = sj * h
            offsets.append(o)
    for j in range(k):
        for sj, st in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            o = np.zeros((m, dim))
            o[:, j] = sj * h
            o[:, -1] = st * h
            offsets.append(o)
    for st in (+1.0, -1.0):
        o = np.zeros((m, dim))
        o[:, -1] = st * h
        offsets.append(o)

    stacked = coords[None, :, :] + np.stack(offsets)  # (n_off, m, dim)
    vals = _eval(field, stacked.reshape(-1, dim)).reshape(len(offsets), m)

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
    h = _step(coords, cfg.h_base)
    val, _ = _sub_laplacian_h(field, coords, h)
    if cfg.richardson:
        half, _ = _sub_laplacian_h(field, coords, 0.5 * h)
        val = (4.0 * half - val) / 3.0
    return val


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
    m, dim = coords.shape
    h = _step(coords, cfg.h_first)
    out = np.empty((m, dim))
    for i in range(dim):
        plus = coords.copy()
        minus = coords.copy()
        plus[:, i] += h
        minus[:, i] -= h
        out[:, i] = (_eval(field, plus) - _eval(field, minus)) / (2.0 * h)
    return out


def infinity_laplacian(
    grad_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    p: Point,
    cfg: FdConfig,
) -> float:
    """Infinity-Laplacian 0.5 <grad |grad u|^2, grad u> at p.

    grad_fn maps (m, 2n+1) coordinate rows to (horizontal gradient (m, 2n),
    |grad u|^2 (m,)); the outer gradient of |grad u|^2 is taken by first
    differences and contracted with the exact inner gradient.
    """
    coords = p.coords()[None, :]
    horiz, _ = grad_fn(coords)
    gsq_field: Field = lambda c: grad_fn(np.atleast_2d(c))[1]
    egrad = fd_gradient(gsq_field, coords, cfg)[0]
    c = field_coefficients_batch(p.x[None, :])[0]
    horiz_of_gsq = egrad[:-1] + c * egrad[-1]
    return float(0.5 * horiz_of_gsq @ horiz[0])


def _norm_grad_fn(params: GroupParams) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    def grad_fn(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        pb = partials_batch(coords[:, :-1], coords[:, -1])
        return pb.horizontal, pb.grad_sq

    return grad_fn


def infinity_laplacian_N(p: Point, params: GroupParams, cfg: FdConfig) -> float:
    """Infinity-Laplacian of the gauge N itself, exact inner gradient."""
    if not np.any(p.x):
        raise ValueError("infinity_laplacian_N is singular on the central line x = 0.")
    return infinity_laplacian(_norm_grad_fn(params), p, cfg)


def infinity_laplacian_witness(
    p: Point, params: GroupParams, cfg: FdConfig
) -> tuple[float, float]:
    """(value, noise floor) for the infinity-Laplacian of N at p.

    The floor combines the (h, h/2) difference of the outer first
    differences with a roundoff estimate; a value exceeding the floor by a
    clear factor certifies a genuinely nonzero infinity-Laplacian.
    """
    coarse = infinity_laplacian_N(p, params, cfg)
    fine_cfg = replace(cfg, h_first=cfg.h_first * 0.5)
    fine = infinity_laplacian_N(p, params, fine_cfg)
    pb = partials_batch(p.x[None, :], np.asarray([p.t]))
    h = _step(p.coords()[None, :], cfg.h_first)[0]
    scale = float(pb.grad_sq[0]) * np.sqrt(float(pb.grad_sq[0]))
    roundoff = np.finfo(float).eps * (p.x.size + 1) * scale / h
    floor = abs(coarse - fine) / 3.0 + roundoff
    return fine, float(floor)
