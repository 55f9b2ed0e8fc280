"""Closed-form homogeneous gauge N and its exact first derivatives.

Writing R = x_1^2 + x_{n+1}^2 for the distinguished pair and S for the sum of
the remaining squared horizontal coordinates, the gauge is built from the two
anisotropic quadratics

    A = R/2 + S/2,      B = R/4 + S/2,

which satisfy B <= A <= 2B, A - B = R/4, 2B - A = S/2.  With

    P = B^2 + t^2,  W = sqrt(P),  E = B + W,  D = A*E + t^2,

the gauge is

    N = P^(1/4n) * D^(1/2 - 1/4n) / E^(1/2).

N is homogeneous of degree 1 under the dilations, even under coordinate
negation, vanishes only at the identity, and N^(2-Q) is a constant multiple
of the fundamental solution of the sub-Laplacian (Q = 2n + 2).

Derivatives have the factored form

    dN/dx_j = x_j * slope,   dN/dt = t * time_slope,

where the slope depends only on (A, B, t) and on whether j lies in the
distinguished pair {1, n+1} or in a remaining pair.  The slopes are the
natural objects for the pointwise inequalities, so the batch evaluator
exposes them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .group import GroupParams, Point, field_coefficients_batch

__all__ = [
    "NormEval",
    "PartialsBatch",
    "ab_quantities",
    "ab_batch",
    "norm_N",
    "norm_batch",
    "exact_partials",
    "partials_batch",
    "norm_field",
    "npow_field",
]


def _rs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R (distinguished pair) and S (remaining coordinates) squared lengths."""
    n = x.shape[-1] // 2
    r = x[..., 0] ** 2 + x[..., n] ** 2
    return r, (x * x).sum(axis=-1) - r


def ab_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and B for an (m, 2n) array of horizontal parts."""
    r, s = _rs(np.asarray(x, dtype=float))
    return 0.5 * r + 0.5 * s, 0.25 * r + 0.5 * s


def ab_quantities(p: Point) -> tuple[float, float]:
    """The anisotropic quadratics (A, B) at a point."""
    a, b = ab_batch(p.x[None, :])
    return float(a[0]), float(b[0])


def _core(x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shared quantities (R, S, A, B, W, E, D) with W = hypot(B, t)."""
    r, s = _rs(x)
    a, b = 0.5 * r + 0.5 * s, 0.25 * r + 0.5 * s
    w = np.hypot(b, t)
    e = b + w
    d = a * e + t * t
    return r, s, a, b, w, e, d


def _gauge(w: np.ndarray, e: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """N from the core quantities W, E, D."""

    def log_n(w, e, d):
        return np.log(w) / (2 * n) + (0.5 - 0.25 / n) * np.log(d) - 0.5 * np.log(e)

    # d > 0 implies w > 0; the gap is deep-underflow input whose value
    # rounds to zero anyway
    mask = d > 0.0
    if mask.all():
        return np.exp(log_n(w, e, d))
    out = np.zeros(d.shape)
    if mask.any():
        out[mask] = np.exp(log_n(w[mask], e[mask], d[mask]))
    return out


def norm_batch(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gauge values for (m, 2n) horizontal parts and (m,) central parts.

    Log-domain evaluation; exact zero at the identity.
    """
    x = np.asarray(x, dtype=float)
    _, _, _, _, w, e, d = _core(x, np.asarray(t, dtype=float))
    return _gauge(w, e, d, x.shape[-1] // 2)


def norm_N(p: Point, params: GroupParams) -> float:
    """Gauge value at a single point."""
    _check_params(p, params)
    return float(norm_batch(p.x[None, :], np.asarray([p.t]))[0])


class PartialsBatch(NamedTuple):
    """Exact derivative data for a batch of points.

    pair_slope and block_slope satisfy dN/dx_j = x_j * slope on the
    distinguished pair {1, n+1} and on the remaining coordinates
    respectively; dN/dt = t * time_slope.  The (m, 2n) arrays dN_dx and
    horizontal are built from x only when read.
    """

    x: np.ndarray
    N: np.ndarray
    A: np.ndarray
    B: np.ndarray
    pair_slope: np.ndarray
    block_slope: np.ndarray
    time_slope: np.ndarray
    dN_dt: np.ndarray
    grad_sq: np.ndarray
    x_dot: np.ndarray

    @property
    def dN_dx(self) -> np.ndarray:
        """dN/dx_j = x_j * slope, pair or block by the index j."""
        n = self.x.shape[-1] // 2
        dn_dx = self.x * self.block_slope[..., None]
        dn_dx[..., 0] = self.x[..., 0] * self.pair_slope
        dn_dx[..., n] = self.x[..., n] * self.pair_slope
        return dn_dx

    @property
    def horizontal(self) -> np.ndarray:
        """X_j N = dN/dx_j + c_j(x) dN/dt."""
        return self.dN_dx + field_coefficients_batch(self.x) * self.dN_dt[..., None]


def partials_batch(x: np.ndarray, t: np.ndarray) -> PartialsBatch:
    """Exact gauge derivatives on an (m, 2n) x (m,) batch, in one pass.

    Because x . c(x) = 0 and sum_j c_j^2 = R/4 + S, the squared horizontal
    gradient and x . grad N follow from per-row scalars:

        grad_sq = R pair^2 + S block^2 + (R/4 + S) dN_dt^2,
        x_dot   = R pair + S block.

    Rows with x = 0 produce non-finite slopes; callers excluding the central
    line need not mask.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    n = x.shape[-1] // 2
    r, s, a, b, w, e, d = _core(x, t)
    p = w * w
    nn = _gauge(w, e, d, n)

    fourn = 4.0 * n
    mid = ((2 * n - 1) / fourn) * e / d
    with np.errstate(divide="ignore", invalid="ignore"):
        g_pair = b / (fourn * p) + mid * (1.0 + a / (2.0 * w)) - 1.0 / (4.0 * w)
        g_block = 2.0 * b / (fourn * p) + mid * (1.0 + a / w) - 1.0 / (2.0 * w)
        g_time = (
            1.0 / (2.0 * n * p)
            + ((2 * n - 1) / fourn) * (2.0 * w + a) / (w * d)
            - 1.0 / (2.0 * w * e)
        )

    pair_slope = nn * g_pair
    block_slope = nn * g_block
    time_slope = nn * g_time
    dn_dt = t * time_slope

    return PartialsBatch(
        x=x,
        N=nn,
        A=a,
        B=b,
        pair_slope=pair_slope,
        block_slope=block_slope,
        time_slope=time_slope,
        dN_dt=dn_dt,
        grad_sq=r * pair_slope**2 + s * block_slope**2 + (0.25 * r + s) * dn_dt**2,
        x_dot=r * pair_slope + s * block_slope,
    )


@dataclass(frozen=True)
class NormEval:
    """Gauge value and exact first-order data at one point."""

    A: float
    B: float
    N: float
    dN_dx: np.ndarray
    dN_dt: float
    horizontal_grad: np.ndarray
    grad_norm_sq: float
    x_dot_grad: float


def exact_partials(p: Point, params: GroupParams) -> NormEval:
    """Exact first derivatives of the gauge at p.

    Raises on the central line x = 0, where N = sqrt|t| has no horizontal
    derivatives in the classical sense.
    """
    _check_params(p, params)
    if not np.any(p.x):
        raise ValueError("exact_partials is undefined on the central line x = 0.")
    batch = partials_batch(p.x[None, :], np.asarray([p.t]))
    return NormEval(
        A=float(batch.A[0]),
        B=float(batch.B[0]),
        N=float(batch.N[0]),
        dN_dx=batch.dN_dx[0],
        dN_dt=float(batch.dN_dt[0]),
        horizontal_grad=batch.horizontal[0],
        grad_norm_sq=float(batch.grad_sq[0]),
        x_dot_grad=float(batch.x_dot[0]),
    )


def _check_params(p: Point, params: GroupParams) -> None:
    if p.n != params.n:
        raise ValueError(f"Point has n={p.n}, params have n={params.n}.")


def norm_field(params: GroupParams) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorised N as a function of (m, 2n+1) coordinate arrays."""
    dim = params.ambient_dim

    def field(coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != dim:
            raise ValueError(f"Expected trailing dimension {dim}.")
        return norm_batch(coords[..., :-1], coords[..., -1])

    return field


def npow_field(params: GroupParams, power: float) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorised N^power; power may be negative (singular at the identity)."""
    base = norm_field(params)

    def field(coords: np.ndarray) -> np.ndarray:
        return base(coords) ** power

    return field
