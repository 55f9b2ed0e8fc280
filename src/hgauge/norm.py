"""Closed-form homogeneous gauge N and its exact first and second derivatives.

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
exposes them directly.  Their formulas have two homes.  partials_batch
evaluates them on raw (A, B, t), as N times each slope's ratio to N, and its
bits are pinned (the chain and partials digests and the benchmark's
sample-mala-2 reference).  The private _chart_slopes returns the
degree-0 products N * slope that the cloud margins of hgauge.inequalities
read, evaluated on the slice B = 1 of the orbit chart (rho = A/B,
tau = t/B) from each row's |x|^2, R and t alone, the first two from
_row_dots: no hypot, no product of nonzero degree, one in-place pass, and
values that hold wherever |x|^2 is a normal float.  partials_batch can move
onto the chart only once the sample-mala-2 reference moves too: when the
benchmark's references are re-recorded or MALA is retired.

The samplers call norm_batch once per tree of up to 72 rows and
partials_batch once per MALA step on up to 8, where numpy's per-call
overhead, not the arithmetic, sets the cost.  So norm_batch evaluates _ab's
and wed's arithmetic inline (ab_batch and wed stay, for hgauge.bgg and
_second_order), _rs squares x once, partials_batch forms 2W once, and the
constants are 0-d arrays; every double is the one the same formulas gave
through the layers.  The kernels stay out of place: numpy runs a ufunc
whose output aliases a one-element input on its overlap-checked path,
about 0.4 us slower, and on 8 or 72 rows an in-place call costs what an
allocating one does.  On a 2-vCPU Xeon (numpy 2.4, n = 6), norm_batch
takes 12.5, 13.4 and 17.0 us on 1, 8 and 72 rows, and partials_batch 28.9,
30.2 and 34.9 us, against 15.3, 16.1 and 19.3 us and 34.4, 35.1 and
40.7 us through the layers.

Second derivatives come from _second_order, which reads N and its gradient
in (R, S, t), (pair_slope / 2, block_slope / 2, dN_dt), off partials_batch
and adds only the Hessian, so every caller reads one gradient.  As
x_j c_j + x_{j+n} c_{j+n} = 0 in every pair, d_j c_j = 0 and
sum_j c_j^2 = R/4 + S, functions of (R, S, t) satisfy the reduced formulas
that _harmonicity_residual and _infinity_laplacian evaluate:

    L F = 4R F_RR + 4F_R + 4S F_SS + 4(n-1) F_S + (R/4 + S) F_tt,
    <grad_H F, grad_H G> = 4R F_R G_R + 4S F_S G_S + (R/4 + S) F_t G_t.

Every function reads n off its input: a Point's x has length 2n and a
batch's horizontal part has 2n columns.  A horizontal width that is odd or
below 4 raises ValueError.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .group import Point, _width_n

__all__ = [
    "PartialsBatch",
    "ab_batch",
    "wed",
    "norm_N",
    "norm_batch",
    "exact_partials",
    "partials_batch",
]

# the gate of every exact check's _rounding_ratio, in eps sum |terms|; the worst seen is 5 for
# check fundamental, 1.5 for check constants and 9.7 for Delta_inf N on infinity-harmonic slices
ROUNDING_GATE = 32.0


def _rounding_ratio(value, scale):
    """|value| / (eps scale) for an exact kernel's value and the sum of its terms' magnitudes:
    its rounding in eps sum |terms|, judged against ROUNDING_GATE.  0 where scale = 0 (the
    witness on the central line, where every term is 0); a NaN stays NaN."""
    scale = np.asarray(scale, dtype=float)
    return np.abs(value) / np.where(scale == 0.0, np.inf, np.finfo(float).eps * scale)


def _rs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R (distinguished pair) and S (remaining coordinates) squared lengths."""
    n = _width_n(x)
    xx = x * x  # a column of x * x has the bits of x[..., j] ** 2
    r = xx[..., 0] + xx[..., n]
    return r, np.add.reduce(xx, axis=-1) - r


def _const(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array."""
    a = np.array(value)
    a.flags.writeable = False
    return a


# The kernels' constants are 0-d arrays holding the same doubles as the floats they
# stand for: numpy 2 spends about 0.2 us more on a ufunc call whose operand is a
# Python float, half what a whole call on a sampler's 8 or 72 rows costs.
_HALF, _QUARTER, _ONE, _FOUR = map(_const, (0.5, 0.25, 1.0, 4.0))


@cache
def _n_consts(n: int) -> tuple[np.ndarray, ...]:
    """2n, 1/2 - 1/4n, 4n and (2n - 1)/4n."""
    return tuple(map(_const, (2.0 * n, 0.5 - 0.25 / n, 4.0 * n, (2 * n - 1) / (4.0 * n))))


def _ab(r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = R/2 + S/2 and B = R/4 + S/2."""
    half_s = _HALF * s
    return _HALF * r + half_s, _QUARTER * r + half_s


def ab_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and B for an (m, 2n) array of horizontal parts."""
    return _ab(*_rs(np.asarray(x, dtype=float)))


def wed(a, b, t):
    """W = hypot(B, t), E = B + W and D = A E + t^2, on floats or arrays."""
    w = np.hypot(b, t)
    e = b + w
    return w, e, a * e + t * t


def _gauge(w: np.ndarray, e: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """N from the core quantities W, E, D."""
    two_n, d_power = _n_consts(n)[:2]

    def log_n(w, e, d):
        return np.log(w) / two_n + d_power * np.log(d) - _HALF * np.log(e)

    # d >= 0, and d > 0 implies w > 0 and e > 0.  d == 0 at the identity and
    # on deep-underflow input, whose value rounds to zero anyway; a NaN row
    # fails the test too and stays NaN below.
    if np.minimum.reduce(d, axis=None, initial=np.inf) > 0.0:
        return np.exp(log_n(w, e, d))
    out = np.zeros(d.shape)
    rest = d != 0.0
    out[rest] = np.exp(log_n(w[rest], e[rest], d[rest]))
    return out


def norm_batch(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gauge values for (m, 2n) horizontal parts and (m,) central parts.

    Log-domain evaluation; exact zero at the identity.  Trusted at scales
    max(||x||_inf, sqrt|t|) of about 1e-75 to 1e75, where D is a normal float.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    # _ab and wed's arithmetic, inline: A is read once, in D
    r, s = _rs(x)
    half_s = _HALF * s
    b = _QUARTER * r + half_s
    w = np.hypot(b, t)
    e = b + w
    return _gauge(w, e, (_HALF * r + half_s) * e + t * t, x.shape[-1] // 2)


def norm_N(p: Point) -> float:
    """Gauge value at a single point."""
    return float(norm_batch(p.x[None, :], np.asarray([p.t]))[0])


class PartialsBatch(NamedTuple):
    """Exact first-order data for a batch of points, or for one point.

    pair_slope and block_slope satisfy dN/dx_j = x_j * slope on the
    distinguished pair {1, n+1} and on the remaining coordinates
    respectively; dN/dt = t * time_slope.  R and S are the squared lengths
    of the pair and of the rest.  The (m, 2n) array dN_dx, and the per-row
    grad_sq and x_dot, are built only when read.  The same
    record holds one point with a (2n,) x and scalar fields (exact_partials).
    Only the identity is singular: its row has N = 0 and NaN slopes.
    """

    x: np.ndarray
    N: np.ndarray
    A: np.ndarray
    B: np.ndarray
    R: np.ndarray
    S: np.ndarray
    pair_slope: np.ndarray
    block_slope: np.ndarray
    time_slope: np.ndarray
    dN_dt: np.ndarray

    @property
    def grad_sq(self) -> np.ndarray:
        """|grad_H N|^2 = R pair^2 + S block^2 + (R/4 + S) dN_dt^2."""
        # products, not **2: on scalar fields ** can round differently from
        # the array path, and a one-point record must match its batch row
        r, s = self.R, self.S
        pair, block, dt = self.pair_slope, self.block_slope, self.dN_dt
        return r * (pair * pair) + s * (block * block) + (0.25 * r + s) * (dt * dt)

    @property
    def x_dot(self) -> np.ndarray:
        """x . grad N = R pair + S block."""
        return self.R * self.pair_slope + self.S * self.block_slope

    @property
    def dN_dx(self) -> np.ndarray:
        """dN/dx_j = x_j * slope, pair or block by the index j."""
        n = self.x.shape[-1] // 2
        dn_dx = self.x * self.block_slope[..., None]
        dn_dx[..., 0] = self.x[..., 0] * self.pair_slope
        dn_dx[..., n] = self.x[..., n] * self.pair_slope
        return dn_dx


def _row_dots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|x|^2 and R of (rows, 2n) x: the two row dots that fix a row's chart point.

    Each is an einsum row dot, whose bits depend on the row alone: the same
    at any row offset and for x strided inside a wider array.
    """
    n = x.shape[1] // 2
    pair = x[:, ::n]
    return np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", pair, pair)


def _chart_slopes(n: int, xsq: np.ndarray, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """(phi, s_p, s_b, T) of rows with |x|^2 = xsq, R = r and time t, on the slice B = 1 of the orbit chart.

    phi = R/|x|^2, s_p = N pair_slope, s_b = N block_slope and T = N |dN/dt|
    have degree 0, so they are partials_batch's N * slope at the chart point
    rho = A/B = 1/(2b), tau = t/B, with B = b |x|^2 and b = 1/2 - phi/4.
    There P = 1 + tau^2, W = sqrt(P), E = 1 + W, D = rho E + tau^2, and with
    f = (P/D)^(1/2n), K = N^2/B = f D/E and c = (2n-1)/(4n):

        s_p = K/(4nP) + c f (1 + rho/(2W)) - K/(4W),
        s_b = K/(2nP) + c f (1 + rho/W) - K/(2W),
        T   = |tau| (K/(2nP) + (c f (2 + rho/W) - K/(2W)) / E).

    The chart reads a row only through its two dots (_row_dots) and t, so a
    cloud can keep three numbers per row instead of its 2n + 1 coordinates.
    No hypot and no product of nonzero degree: the values hold wherever |x|^2
    is a normal float and |t|/|x|^2 is below about 1e150 (tau^2 finite),
    where partials_batch on raw (A, B, t) holds at scales of about 1e-50 to 1e50.
    One in-place pass, which overwrites xsq and r (phi is r); the comments
    name what a reused array holds.
    """
    c = (2 * n - 1) / (4.0 * n)
    tau, phi = xsq, r  # |x|^2, R
    phi /= tau
    rho = np.multiply(phi, -0.25)
    rho += 0.5  # b
    np.divide(t, tau, out=tau)
    tau /= rho  # tau
    np.divide(0.5, rho, out=rho)  # rho
    f = np.multiply(tau, tau)  # tau^2
    p = np.add(f, 1.0)
    w = np.sqrt(p)
    e = np.add(w, 1.0)
    k = np.multiply(rho, e)
    k += f  # D
    np.divide(p, k, out=f)  # f, from P/D
    np.log(f, out=f)
    f *= 0.5 / n
    np.exp(f, out=f)
    k *= f
    k /= e  # K
    p *= 4.0 * n
    np.divide(k, p, out=p)  # K/(4nP)
    rho /= w  # rho/W
    np.divide(k, w, out=w)
    w *= 0.25  # K/(4W)
    f *= c  # c f
    sp = np.multiply(rho, 0.5)
    sp += 1.0
    sp *= f
    sp += p
    sp -= w
    sb = np.add(rho, 1.0)
    sb *= f
    p *= 2.0  # K/(2nP)
    w *= 2.0  # K/(2W)
    sb += p
    sb -= w
    rho += 2.0  # on to T
    rho *= f
    rho -= w
    rho /= e
    rho += p
    rho *= tau
    return phi, sp, sb, np.abs(rho, out=rho)


def partials_batch(x: np.ndarray, t: np.ndarray) -> PartialsBatch:
    """Exact gauge derivatives on an (m, 2n) x (m,) batch, in one pass.

    Because x . c(x) = 0 and sum_j c_j^2 = R/4 + S, the squared horizontal
    gradient and x . grad N follow from per-row scalars:

        grad_sq = R pair^2 + S block^2 + (R/4 + S) dN_dt^2,
        x_dot   = R pair + S block.

    Each slope is N times its ratio to N (g_pair, g_block, g_time), on raw
    (A, B, t); _chart_slopes reads the same formulas off the orbit chart.
    N is smooth on the central line x = 0, and its rows are exact like any
    other; the identity row gives N = 0 and NaN slopes, a NaN row NaN.
    Trusted at scales of about 1e-50 to 1e50; past them degree-6 products
    such as W D over- or underflow and the slopes go wrong (ROADMAP item 2).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    n = x.shape[-1] // 2
    r, s = _rs(x)
    a, b = _ab(r, s)
    w, e, d = wed(a, b, t)
    p = w * w
    two_n, _, four_n, c = _n_consts(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = c * e / d
        # 2b/x = 2 (b/x), 1/(2W) = 2 / (4W) and A/(2W) = (A/W) / 2 hold bit for bit,
        # and so does 2x = x + x
        b_p, inv_4w, a_w, w2 = b / (four_n * p), _ONE / (_FOUR * w), a / w, w + w
        g_pair = b_p + mid * (_ONE + _HALF * a_w) - inv_4w
        g_block = (b_p + b_p) + mid * (_ONE + a_w) - (inv_4w + inv_4w)
        g_time = _ONE / (two_n * p) + c * (w2 + a) / (w * d) - _ONE / (w2 * e)
    nn = _gauge(w, e, d, n)
    del w, e, d, p, mid, b_p, inv_4w, a_w, w2  # freed before the products, so they add no peak
    time_slope = nn * g_time
    return PartialsBatch(
        x=x,
        N=nn,
        A=a,
        B=b,
        R=r,
        S=s,
        pair_slope=nn * g_pair,
        block_slope=nn * g_block,
        time_slope=time_slope,
        dN_dt=t * time_slope,
    )


def exact_partials(p: Point) -> PartialsBatch:
    """Exact first-order data at p: the batch kernel's record for its one row.

    Raises at the identity, the one point where N is not differentiable; the
    central line x = 0 is smooth elsewhere and exact like any other point.
    Trusted over partials_batch's range of scales, about 1e-50 to 1e50.
    """
    if p.t == 0 and not np.any(p.x):
        raise ValueError("exact_partials is undefined at the identity.")
    return PartialsBatch._make(f[0] for f in partials_batch(p.x[None, :], np.asarray([p.t])))


# d(A, B, t) / d(R, S, t), from A = R/2 + S/2 and B = R/4 + S/2
_JAC = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.0], [0.0, 0.0, 1.0]])


def _second_order(x: np.ndarray, t: np.ndarray):
    """R, S, N, and N's gradient (3, m) and Hessian (3, 3, m) in (R, S, t).

    N and the gradient (pair_slope / 2, block_slope / 2, dN_dt) are
    partials_batch's, bit for bit.  Only the Hessian is new: the second
    derivatives u_ij of log N = log P / 4n + (1/2 - 1/4n) log D - log E / 2
    in (A, B, t), carried to (R, S, t) by _JAC, give
    N_ij = N u_ij + N_i N_j / N.
    Products such as W^3 D have degree 10 under the dilations, so callers
    evaluate it at unit scale: on shell rows, or through _unit_scale.
    """
    pb = partials_batch(x, t)
    a, b, nn = pb.A, pb.B, pb.N
    n = x.shape[-1] // 2
    w, e, d = wed(a, b, t)
    p, we, wd = w * w, w * e, w * d
    w3 = w * p
    alpha, beta = 0.25 / n, 0.5 - 0.25 / n
    # first derivatives of log P, log E and log D in (A, B, t); P and E miss A
    p_b, p_t = 2.0 * b / p, 2.0 * t / p
    e_t = t / we
    d_a, d_b, d_t = e / d, a * e / wd, (a * t / w + 2.0 * t) / d
    # second derivatives: (log F)_ij = F_ij / F - (F_i / F)(F_j / F)
    u_aa = -beta * d_a * d_a
    u_ab = beta * (e / wd - d_a * d_b)
    u_at = beta * (t / wd - d_a * d_t)
    u_bb = alpha * (2.0 / p - p_b * p_b) + beta * (a * t * t / (w3 * d) - d_b * d_b) + 0.5 * b / w3
    u_bt = -alpha * p_b * p_t - beta * (a * b * t / (w3 * d) + d_b * d_t) + 0.5 * t / w3
    u_tt = (
        alpha * (2.0 / p - p_t * p_t)
        + beta * ((a * b * b / w3 + 2.0) / d - d_t * d_t)
        - 0.5 * (1.0 / we - e_t * e_t * (1.0 + e / w))
    )
    h = np.stack([u_aa, u_ab, u_at, u_ab, u_bb, u_bt, u_at, u_bt, u_tt]).reshape(3, 3, -1)
    h = np.einsum("ai,abm,bj->ijm", _JAC, h, _JAC)
    grad = np.stack([0.5 * pb.pair_slope, 0.5 * pb.block_slope, pb.dN_dt])
    return pb.R, pb.S, nn, grad, nn * h + grad[:, None] * grad[None, :] / nn


def _unit_scale(p: Point) -> tuple[int, Point]:
    """(k, delta_{2^-k} p) with max(||x||_inf, sqrt|t|) / 2^k in [1, 2): an output of
    degree d at p is its value there times 2^(d k), an exact ldexp where it is normal."""
    k = int(np.frexp(max(np.max(np.abs(p.x)), np.sqrt(abs(p.t))))[1]) - 1
    return k, Point(np.ldexp(p.x, -k), np.ldexp(p.t, -2 * k))


def _horizontal_dot(r, s, f, g):
    """<grad_H F, grad_H G> from (R, S, t) gradients f and g; g may be a Hessian."""
    return 4.0 * r * f[0] * g[0] + 4.0 * s * f[1] * g[1] + (0.25 * r + s) * f[2] * g[2]


def _harmonicity_residual(x: np.ndarray, t: np.ndarray, power: float):
    """L N + (power - 1) |grad_H N|^2 / N, and the sum of its terms' magnitudes.

    L N^p = p N^(p-1) (L N + (p - 1) |grad_H N|^2 / N), so the residual is
    zero exactly where N^power is L-harmonic; power = 2 - Q is the
    fundamental solution's, and power = 1 gives L N itself.  The magnitude
    sum sets the scale of the residual's rounding error.
    """
    r, s, nn, grad, hess = _second_order(x, t)
    k = 4.0 * (x.shape[-1] // 2 - 1)  # 4(n - 1)
    terms = (4.0 * r * hess[0, 0], 4.0 * grad[0], 4.0 * s * hess[1, 1], k * grad[1])
    terms += ((0.25 * r + s) * hess[2, 2], (power - 1) * _horizontal_dot(r, s, grad, grad) / nn)
    return sum(terms), sum(np.abs(term) for term in terms)


def _infinity_laplacian(x: np.ndarray, t: np.ndarray):
    """Delta_inf N = 1/2 <grad_H G, grad_H N>, G = |grad_H N|^2, and its terms' magnitude sum.

    G's coefficients 4R, 4S and R/4 + S add 4 N_R^2 + N_t^2 / 4 to G_R and
    4 N_S^2 + N_t^2 to G_S; the rest of grad G is 2 <grad_H N, grad_H N_i>.
    The magnitude sum is the same contraction of |grad| and |hess|."""
    r, s, _, grad, hess = _second_order(x, t)

    def contract(grad, hess):
        grad_g = 2.0 * _horizontal_dot(r, s, grad, hess)
        grad_g[0] += 4.0 * grad[0] * grad[0] + 0.25 * grad[2] * grad[2]
        grad_g[1] += 4.0 * grad[1] * grad[1] + grad[2] * grad[2]
        return 0.5 * _horizontal_dot(r, s, grad_g, grad)

    return contract(grad, hess), contract(np.abs(grad), np.abs(hess))
