"""Fundamental solution of the sub-Laplacian: integral oracle and closed form.

The starting point is the heat-kernel representation of the fundamental
solution u at a point with quadratics (A, B) and central coordinate t.  After
substituting u = csch(tau/2) the representation becomes the real integral

    u(A, B, t) = Gamma(n)/(2 pi)^n * Re I_n,
    I_n = int_0^inf s^(2n-2) / (A s^2 + 2B - 2 i t sqrt(1+s^2))^n ds.

For n = 2 the integral evaluates in closed form.  Splitting Re I_2 into a
modulus piece and a phase correction,

    I_modulus = int_0^inf s^2 / ((A s^2 + 2B)^2 + 4 t^2 (1+s^2)) ds
              = pi / (4 A sqrt(D)),
    Re I_2 = I_modulus + t * d/dt I_modulus = pi E^2 / (8 W D^(3/2)),

with W = sqrt(B^2 + t^2), E = B + W, D = A E + t^2.  The modulus quartic
A^2 z^4 + (4AB + 4t^2) z^2 + 4B^2 + 4t^2 has purely imaginary roots
+- i y_1, +- i y_2 (the constraint 2B >= A keeps its discriminant in z^2
nonnegative), and the residue sum gives I_modulus = pi / (2 A^2 (y_1+y_2)),
i.e. ((y_1+y_2)/2)^2 = D / A^2.  Differentiating n - 2 times in A produces
the general closed form

    u = K_n * E^n / (W * D^(n - 1/2)),
    K_n = (prod_{k=3}^{n} (2k-3)) / (2 * pi^(n-1) * 2^(2n)),

and since N^(2n) = W D^(n - 1/2) / E^n, u = K_n N^(2-Q): the paper's
fundamental solution.  The module evaluates u that way, from the gauge
kernel of hgauge.norm, so the quadrature oracle is measured against the
gauge itself.  The one-point forms fundamental_solution_closed and
fundamental_solution_quad read n off the point, n = p.n.  compare_cloud
reports how far each of these n = 2 steps (the closed modulus piece, the
phase correction as -t d/dt I_modulus, the split of Re I_2, and the pole
locations) is from holding on its cloud.

The gauge form is checked only against the quadrature of its own
representation (criterion 01, bgg compare).  That quadrature carries the
same Gamma(n)/(2 pi)^n, so it cannot see an error in the constant.  Which
equation u solves is measured, not derived: with L = sum_j X_j^2,
K_n (Q-2) int_{N=1} |grad_H N|^2 dsigma = pi at n = 2, 3, 6 and 10 (ROADMAP
item 4), that is, L u = -pi delta.

The oracle integrates the representation directly, with numpy alone.  The
head s in [0, 1] and the tail s = 1/v, v in [0, 1], share one integrand on
[0, 1], and a tanh-sinh rule (Takahasi & Mori, 1974) integrates it for every
row of a cloud at once.  Each level halves the step and reuses the earlier
nodes; a row is done when two successive levels agree to REL_TOL, the one
fixed tolerance.  A row that misses REL_TOL at the finest level raises
QuadratureError instead of returning a value.  That happens where Re I_n
cancels: where the integral of |integrand| exceeds |Re I_n| by about 10^6 or
more (small |x| against |t|, and large n), rounding alone exceeds the
tolerance.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .group import Point, _check_n
from .inequalities import BOX, _part
from .norm import ab_batch, norm_N, norm_batch, wed

__all__ = [
    "solution_constant",
    "fundamental_solution_quad",
    "fundamental_solution_closed",
    "compare_cloud",
]


# tanh-sinh nodes v = 1/(1 + exp(-pi sinh u)) on |u| <= U_MAX, step 2^-k at level k
U_MAX = 4
MIN_LEVEL = 3  # first level whose error estimate is trusted (h = 1/8)
MAX_LEVEL = 9  # finest level (h = 1/512); a row not converged by then raises
REL_TOL = 1e-11  # a row is done when two successive levels agree to this
CLOUD_MIN_RADIUS = 0.1  # compare_cloud's cloud keeps |x| >= this in sample_cloud's box


class QuadratureError(RuntimeError):
    pass


def _level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes v and weights dv/du that level k adds: all of them at k = 0,
    the odd multiples of the step 2^-k after."""
    j = np.arange(-U_MAX * 2**k, U_MAX * 2**k + 1)
    if k > 0:
        j = j[j % 2 == 1]
    u = j * 2.0**-k
    ps = math.pi * np.sinh(u)
    v = 1.0 / (1.0 + np.exp(-ps))
    return v, math.pi * np.cosh(u) * v / (1.0 + np.exp(ps))


_LEVELS = tuple(_level(k) for k in range(MAX_LEVEL + 1))


def _integrate(f: Callable[..., np.ndarray], rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """int_0^1 f dv for every row at once, by the tanh-sinh rule.

    rows holds equal-length 1-D parameter arrays; f(v, *cols) gets them as
    (k, 1) columns of the k rows still running and returns their (k, nodes)
    values at the nodes v.  Each level halves the step and adds only the new
    nodes.  A row stops at the first level from MIN_LEVEL on where
    |I_k - I_(k-1)| <= REL_TOL |I_k|; a row still running after MAX_LEVEL
    raises QuadratureError.  Rows never mix, so a row's value does not depend
    on the other rows.
    """
    cols = tuple(r[:, None] for r in rows)
    m = cols[0].shape[0]
    sums = np.zeros(m)
    est = np.zeros(m)
    live = np.arange(m)
    for k, (v, w) in enumerate(_LEVELS):
        sums[live] += (f(v, *(c[live] for c in cols)) * w).sum(axis=1)
        prev = est[live]
        est[live] = sums[live] * 2.0**-k
        if k >= MIN_LEVEL:
            live = live[~(np.abs(est[live] - prev) <= REL_TOL * np.abs(est[live]))]
        if live.size == 0:
            return est
    i = live[0]
    raise QuadratureError(
        f"Quadrature missed REL_TOL={REL_TOL:g} on {live.size} of {m} rows at step "
        f"2^-{MAX_LEVEL}; first such row's parameters: {', '.join(f'{c[i, 0]:.17g}' for c in cols)}"
    )


def _ipow(z: np.ndarray, n: int) -> np.ndarray:
    out = z
    for _ in range(n - 1):
        out = out * z
    return out


def _re_integrand(n: int) -> Callable[..., np.ndarray]:
    """Re s^(2n-2) / Z^n with Z = A s^2 + 2B - 2 i t sqrt(1+s^2), folded onto
    [0, 1]: the tail s = 1/v adds Re (A + 2B v^2 - 2 i t v sqrt(1+v^2))^(-n)."""

    def f(v: np.ndarray, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
        v2 = v * v
        root = np.sqrt(1.0 + v2)
        head = v ** (2 * n - 2) / _ipow(a * v2 + 2.0 * b - 2.0j * t * root, n)
        tail = 1.0 / _ipow(a + 2.0 * b * v2 - 2.0j * t * (v * root), n)
        return head.real + tail.real

    return f


def _modulus_integrand(v, a, b, t):
    """s^2 / |Z|^2, folded onto [0, 1] like _re_integrand."""
    v2 = v * v
    t2 = 4.0 * t * t * (1.0 + v2)
    return v2 / ((a * v2 + 2.0 * b) ** 2 + t2) + 1.0 / ((a + 2.0 * b * v2) ** 2 + t2 * v2)


def _phase_integrand(v, a, b, t):
    """2 s^2 (Im Z)^2 / |Z|^4, folded: the modulus integrand minus Re s^2 / Z^2."""
    v2 = v * v
    t2 = 4.0 * t * t * (1.0 + v2)
    head = (a * v2 + 2.0 * b) ** 2 + t2
    tail = (a + 2.0 * b * v2) ** 2 + t2 * v2
    return 2.0 * t2 * v2 * (1.0 / (head * head) + 1.0 / (tail * tail))


def _re_rows(a: np.ndarray, b: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    """Quadrature of Re I_n for every row of (A, B, t)."""
    return _integrate(_re_integrand(n), (a, b, t))


def _solution(re_i: np.ndarray, n: int) -> np.ndarray:
    """u = Gamma(n)/(2 pi)^n Re I_n."""
    return math.factorial(n - 1) / (2.0 * math.pi) ** n * re_i


def _pole_mean(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(y_1 + y_2) / 2 for the roots +- i y_1, +- i y_2 of z^4 + c2 z^2 + c0,
    the modulus quartic divided by A^2, with no appeal to D = A E + t^2.

    y^2 solves y^4 - c2 y^2 + c0 = 0: y_1^2 = (c2 + sqrt(Delta)) / 2 and, by
    Vieta, y_2^2 = c0 / y_1^2.  Delta = c2^2 - 4 c0 is taken in its factored
    form 16 t^2 (A S/2 + t^2) / A^4, S/2 = 2B - A >= 0: the plain difference
    cancels, and can go negative, once |t| is near 1e-8 A.
    """
    a2 = a * a
    c2 = 4.0 * (a * b + t * t) / a2
    c0 = 4.0 * (b * b + t * t) / a2
    y1_sq = 0.5 * (c2 + 4.0 * np.abs(t) * np.sqrt(a * (2.0 * b - a) + t * t) / a2)
    return 0.5 * (np.sqrt(y1_sq) + np.sqrt(c0 / y1_sq))


def _identities(a: np.ndarray, b: np.ndarray, t: np.ndarray, re_i2: np.ndarray) -> dict[str, float]:
    """Largest deviation over the rows of each step of the n = 2 derivation,
    given the rows' quadrature re_i2 of Re I_2.

    modulus_closed  |I_modulus / quadrature - 1|
    t_derivative    |phase quadrature - (-t d/dt I_modulus)| / I_modulus,
                    with d/dt D = A t / W + 2t
    split           |Re I_2 quadrature / (I_modulus - phase quadrature) - 1|
    pole_roots      |(D / A^2) / m^2 - 1|, m the mean imaginary part of the
                    upper-half-plane roots of the modulus quartic (_pole_mean)
    """
    rows = (a, b, t)
    w, _, d = wed(a, b, t)
    modulus = math.pi / (4.0 * a * np.sqrt(d))
    minus_t_ddt = math.pi * t * (a * t / w + 2.0 * t) / (8.0 * a * d**1.5)
    phase = _integrate(_phase_integrand, rows)
    mean_imag = _pole_mean(a, b, t)
    deviations = {
        "modulus_closed": modulus / _integrate(_modulus_integrand, rows) - 1.0,
        "t_derivative": (phase - minus_t_ddt) / modulus,
        "split": re_i2 / (modulus - phase) - 1.0,
        "pole_roots": d / (a * a) / (mean_imag * mean_imag) - 1.0,
    }
    return {name: float(np.max(np.abs(dev))) for name, dev in deviations.items()}


def solution_constant(n: int) -> float:
    """K_n with u = K_n N^(-2n); equals 1/(32 pi) at n = 2."""
    _check_n(n)
    odd = math.prod(range(3, 2 * n - 2, 2)) if n >= 3 else 1
    return odd / (2.0 * math.pi ** (n - 1) * 2.0 ** (2 * n))


def fundamental_solution_quad(p: Point) -> float:
    """Direct quadrature of the integral representation: the one-row case of
    the vectorised rule that compare_cloud applies to a whole cloud."""
    if not np.any(p.x):
        raise ValueError("Integral representation needs x != 0.")
    a, b = ab_batch(p.x[None, :])
    return float(_solution(_re_rows(a, b, np.array([p.t]), p.n), p.n)[0])


def fundamental_solution_closed(p: Point) -> float:
    """Closed form K_n N^(-2n), with n = p.n."""
    if not np.any(p.x) and p.t == 0.0:
        raise ValueError("Fundamental solution is singular at the identity.")
    return solution_constant(p.n) * norm_N(p) ** (-2 * p.n)


def compare_cloud(n: int, n_points: int, seed: int) -> dict:
    """Quadrature vs the gauge form K_n N^(-2n) on a seeded cloud: an error summary.

    The whole cloud is integrated in one vectorised pass, row for row the
    same arithmetic as fundamental_solution_quad, on one part drawn by
    inequalities._part in sample_cloud's box (x in [-BOX, BOX]^{2n}, t in
    [-BOX^2, BOX^2]) with |x| >= CLOUD_MIN_RADIUS, clear of the central line,
    where the representation is singular.  Only the worst row is stacked into
    coordinates; at a max_rel_err of 1e-15 to 1e-14 it marks where rounding
    peaked, not where the oracle is weakest.  "identities" holds the n = 2
    derivation steps (see _identities) on the cloud's own (A, B, t) rows;
    I_2 depends on those alone, so they are checked for every n.  At n = 2
    one quadrature of Re I_2 serves both the solution and the split.
    """
    _check_n(n)
    x, t = _part(n, seed, n_points, BOX, BOX * BOX, CLOUD_MIN_RADIUS)
    a, b = ab_batch(x)
    re_i = _re_rows(a, b, t, n)
    re_i2 = re_i if n == 2 else _re_rows(a, b, t, 2)
    closed = solution_constant(n) * norm_batch(x, t) ** (-2 * n)
    rel_errs = np.abs(_solution(re_i, n) - closed) / closed
    worst = np.argmax(rel_errs)
    return {
        "n": n,
        "points": n_points,
        "seed": seed,
        "max_rel_err": float(rel_errs[worst]),
        "mean_rel_err": float(np.mean(rel_errs)),
        "worst_point": [float(v) for v in (*x[worst], t[worst])],
        "identities": _identities(a, b, t, re_i2),
    }
