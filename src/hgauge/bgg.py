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

so that u * N^(2n) = K_n identically.  The one-point forms
fundamental_solution_closed and fundamental_solution_quad read n off the
point, n = p.n.  compare_cloud reports how far each of these n = 2 steps
(the closed modulus piece, the phase correction as -t d/dt I_modulus, the
split of Re I_2, and the pole locations) is from holding on its cloud.

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

from .group import GroupParams, Point, _check_n
from .inequalities import draw_rows
from .norm import ab_batch, wed

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
# compare_cloud's cloud: x in [-5, 5]^{2n} with |x| >= 0.1, t in [-25, 25]
CLOUD_BOX = 5.0
CLOUD_T_MAX = 25.0
CLOUD_MIN_RADIUS = 0.1


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


def _closed(a, b, t, n: int):
    """K_n E^n / (W D^(n-1/2)) on floats or arrays."""
    w, e, d = wed(a, b, t)
    return solution_constant(n) * np.exp(n * np.log(e) - np.log(w) - (n - 0.5) * np.log(d))


def _identities(a: np.ndarray, b: np.ndarray, t: np.ndarray, re_i2: np.ndarray) -> dict[str, float]:
    """Largest deviation over the rows of each step of the n = 2 derivation,
    given the rows' quadrature re_i2 of Re I_2.

    modulus_closed  |I_modulus / quadrature - 1|
    t_derivative    |phase quadrature - (-t d/dt I_modulus)| / I_modulus,
                    with d/dt D = A t / W + 2t
    split           |Re I_2 quadrature / (I_modulus - phase quadrature) - 1|
    pole_roots      |(D / A^2) / m^2 - 1|, m the mean imaginary part of the
                    upper-half-plane roots of the modulus quartic, found as
                    eigenvalues of its companion matrices
    """
    rows = (a, b, t)
    w, _, d = wed(a, b, t)
    modulus = math.pi / (4.0 * a * np.sqrt(d))
    minus_t_ddt = math.pi * t * (a * t / w + 2.0 * t) / (8.0 * a * d**1.5)
    phase = _integrate(_phase_integrand, rows)
    # z^4 + c2 z^2 + c0, the quartic divided by A^2
    companion = np.zeros((a.size, 4, 4))
    companion[:, 0, 1] = -(4.0 * a * b + 4.0 * t * t) / (a * a)
    companion[:, 0, 3] = -(4.0 * b * b + 4.0 * t * t) / (a * a)
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    mean_imag = np.sort(np.linalg.eigvals(companion).imag, axis=1)[:, 2:].mean(axis=1)
    deviations = {
        "modulus_closed": modulus / _integrate(_modulus_integrand, rows) - 1.0,
        "t_derivative": (phase - minus_t_ddt) / modulus,
        "split": re_i2 / (modulus - phase) - 1.0,
        "pole_roots": d / (a * a) / (mean_imag * mean_imag) - 1.0,
    }
    return {name: float(np.max(np.abs(dev))) for name, dev in deviations.items()}


def solution_constant(n: int) -> float:
    """K_n with u = K_n E^n / (W D^(n-1/2)); equals 1/(32 pi) at n = 2."""
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
    """Closed form K_n E^n / (W D^(n-1/2)), with n = p.n."""
    if not np.any(p.x) and p.t == 0.0:
        raise ValueError("Fundamental solution is singular at the identity.")
    a, b = ab_batch(p.x[None, :])
    return float(_closed(a, b, p.t, p.n)[0])


def compare_cloud(params: GroupParams, n_points: int, seed: int) -> dict:
    """Quadrature vs closed form on a seeded cloud; returns an error summary.

    The whole cloud is integrated in one vectorised pass, row for row the
    same arithmetic as fundamental_solution_quad.  The cloud is one part
    drawn by inequalities.draw_rows with CLOUD_BOX, CLOUD_T_MAX and
    CLOUD_MIN_RADIUS: x stays clear of the central line, where the integral
    representation is singular.  The summary's "identities" holds the n = 2
    derivation steps (see _identities) checked on the cloud's own (A, B, t)
    rows; I_2 depends on those alone, so they are checked for every n.  At
    n = 2 the one quadrature of Re I_2 serves both the solution and the split.
    """
    coords = draw_rows(
        params, seed, 0, n_points, CLOUD_BOX, CLOUD_T_MAX, CLOUD_MIN_RADIUS, None, (0, n_points)
    )
    a, b = ab_batch(coords[:, :-1])
    t = coords[:, -1]
    re_i = _re_rows(a, b, t, params.n)
    re_i2 = re_i if params.n == 2 else _re_rows(a, b, t, 2)
    closed = _closed(a, b, t, params.n)
    rel_errs = np.abs(_solution(re_i, params.n) - closed) / closed
    return {
        "n": params.n,
        "points": n_points,
        "seed": seed,
        "max_rel_err": float(np.max(rel_errs)),
        "mean_rel_err": float(np.mean(rel_errs)),
        "worst_point": [float(v) for v in coords[np.argmax(rel_errs)]],
        "identities": _identities(a, b, t, re_i2),
    }
