"""Independent references for the tests: finite-difference stencils, the
horizontal gradient X_j N and the closed form of the fundamental solution in
(A, B, t).

The sub-Laplacian in coordinates is

    L u = sum_j [ d^2_jj u + 2 c_j(x) d^2_jt u ] + (sum_j c_j(x)^2) d^2_tt u,

with the central coefficients c_j from the group layer.  Second derivatives
use 3-point central stencils, mixed ones 4-point cross stencils.  Steps scale
with 1 + ||p||_inf.  Every stencil is one matrix of step multiples, and the
field is evaluated once on all of its shifted copies.  The stencils take
their base step from the caller: they are the full-space cross-checks of
norm's exact calculus.  (m, 2n+1) coordinate rows fix n.  A stencil that
meets the identity raises ValueError, and one whose field overflows anywhere
else RuntimeError.

closed_form_solution evaluates u = K_n E^n / (W D^(n - 1/2)), the form that
bgg's derivation ends in, without the gauge kernel, so that the tests can
check the identity u N^(2n) = K_n that bgg evaluates u by.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from hgauge.bgg import solution_constant
from hgauge.group import Point, field_coefficients_batch
from hgauge.norm import PartialsBatch, ab_batch, wed

Field = Callable[[np.ndarray], np.ndarray]


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


def sub_laplacian_scale(field: Field, coords: np.ndarray, h: float) -> np.ndarray:
    """sum_k |w_k f_k| over sub_laplacian_batch's stencil terms at base step h.

    The terms are the stencil's weighted field values (weights 1, -2 and 1
    over h^2, 2 c_j / (4 h^2) on the cross stencils, sum_j c_j^2 times 1, -2
    and 1 over h^2 on the t stencil), so eps times this sum sets the scale of
    the stencil's rounding error.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    h = _step(coords, h)
    m, dim = coords.shape
    k = dim - 1
    vals = np.abs(_stencil(field, coords, _sub_laplacian_shifts(dim), h))
    c = np.abs(field_coefficients_batch(coords[:, :-1]))
    center = 2.0 * vals[0]
    axial = np.sum(vals[1 : 2 * k + 1], axis=0) + k * center
    cross = 0.5 * np.sum(c.T * np.sum(vals[2 * k + 1 : 6 * k + 1].reshape(k, 4, m), axis=1), axis=0)
    central = np.sum(c * c, axis=-1) * (vals[-2] + vals[-1] + center)
    return (axial + cross + central) / (h * h)


def fd_gradient(field: Field, coords: np.ndarray, h: float) -> np.ndarray:
    """Central first differences of field at base step h; returns (m, 2n+1) Euclidean gradients."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    dim = coords.shape[1]
    steps = _step(coords, h)
    eye = np.eye(dim, dtype=int)
    vals = _stencil(field, coords, np.vstack([eye, -eye]), steps)
    return ((vals[:dim] - vals[dim:]) / (2.0 * steps)).T


def horizontal(pb: PartialsBatch) -> np.ndarray:
    """X_j N = dN/dx_j + c_j(x) dN/dt, from a batch's or a point's record."""
    return pb.dN_dx + field_coefficients_batch(pb.x) * pb.dN_dt[..., None]


def closed_form_solution(p: Point) -> float:
    """K_n E^n / (W D^(n-1/2)) at p, with n = p.n."""
    a, b = ab_batch(p.x[None, :])
    w, e, d = wed(a, b, p.t)
    n = p.n
    return float(solution_constant(n) * np.exp(n * np.log(e) - np.log(w) - (n - 0.5) * np.log(d))[0])
