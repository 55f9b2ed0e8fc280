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

so that u * N^(2n) = K_n identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import GroupParams, Point
from .inequalities import draw_cloud
from .norm import ab_quantities

__all__ = [
    "QuadratureConfig",
    "modulus_integral",
    "modulus_integral_quad",
    "phase_correction_quad",
    "real_part_integral",
    "real_part_integral_quad",
    "pole_imag_mean_sq",
    "solution_constant",
    "fundamental_solution_quad",
    "fundamental_solution_closed",
    "compare_cloud",
]


ABS_TOL = 1e-30
MAX_SUBDIVISIONS = 200
SPLIT_POINT = 1.0  # [0, split] direct, tail via s -> 1/s
# compare_cloud's cloud: x in [-5, 5]^{2n} with |x| >= 0.1, t in [-25, 25]
CLOUD_BOX = 5.0
CLOUD_T_MAX = 25.0
CLOUD_MIN_RADIUS = 0.1


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-11

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("Quadrature tolerance must be positive.")


class QuadratureError(RuntimeError):
    pass


def _quad(f: Callable[[float], float], lo: float, hi: float, cfg: QuadratureConfig) -> float:
    # imported here: scipy takes most of the package's import time, and only
    # the quadrature oracle needs it
    from scipy.integrate import quad

    out = quad(
        f, lo, hi,
        epsabs=ABS_TOL, epsrel=cfg.rel_tol,
        limit=MAX_SUBDIVISIONS, full_output=1,
    )
    val, err = out[0], out[1]
    if len(out) > 3 and err > 1e-6 * max(abs(val), 1e-300):
        raise QuadratureError(f"Quadrature did not converge: {out[3]}")
    return val


def _integrate_half_line(f: Callable[[float], float], cfg: QuadratureConfig) -> float:
    """int_0^inf f, split at SPLIT_POINT with an inversion of the tail."""
    head = _quad(f, 0.0, SPLIT_POINT, cfg)
    tail = _quad(lambda v: f(1.0 / v) / (v * v), 0.0, 1.0 / SPLIT_POINT, cfg)
    return head + tail


def _ipow(z: complex, n: int) -> complex:
    out = 1.0 + 0.0j
    for _ in range(n):
        out *= z
    return out


def _check_ab(a: float, b: float) -> None:
    if not (a > 0 and b > 0 and b <= a <= 2 * b * (1 + 1e-12)):
        raise ValueError(f"Need 0 < B <= A <= 2B, got A={a}, B={b}.")


def _wed(a: float, b: float, t: float) -> tuple[float, float, float]:
    w = math.hypot(b, t)
    e = b + w
    d = a * e + t * t
    return w, e, d


def modulus_integral(a: float, b: float, t: float) -> float:
    """Closed form pi / (4 A sqrt(D)) of the modulus piece."""
    _check_ab(a, b)
    _, _, d = _wed(a, b, t)
    return math.pi / (4.0 * a * math.sqrt(d))


def modulus_integral_quad(a: float, b: float, t: float, cfg: QuadratureConfig) -> float:
    _check_ab(a, b)

    def f(s: float) -> float:
        q = a * s * s + 2.0 * b
        return s * s / (q * q + 4.0 * t * t * (1.0 + s * s))

    return _integrate_half_line(f, cfg)


def phase_correction_quad(a: float, b: float, t: float, cfg: QuadratureConfig) -> float:
    """The part subtracted from the modulus piece to give Re I_2."""
    _check_ab(a, b)

    def f(s: float) -> float:
        s2 = s * s
        q = a * s2 + 2.0 * b
        den = q * q + 4.0 * t * t * (1.0 + s2)
        return 8.0 * t * t * (1.0 + s2) * s2 / (den * den)

    return _integrate_half_line(f, cfg)


def real_part_integral(a: float, b: float, t: float) -> float:
    """Closed form Re I_2 = pi E^2 / (8 W D^(3/2))."""
    _check_ab(a, b)
    w, e, d = _wed(a, b, t)
    return math.pi * e * e / (8.0 * w * d ** 1.5)


def real_part_integral_quad(a: float, b: float, t: float, cfg: QuadratureConfig) -> float:
    _check_ab(a, b)

    def f(s: float) -> float:
        z = a * s * s + 2.0 * b - 2.0j * t * math.sqrt(1.0 + s * s)
        return (s * s / (z * z)).real

    return _integrate_half_line(f, cfg)


def pole_imag_mean_sq(a: float, b: float, t: float) -> float:
    """Squared mean imaginary part of the upper-half-plane modulus-quartic poles.

    Equals D / A^2; at t = 0 the two poles coincide at i sqrt(2B/A) and this
    is the squared imaginary part of that double pole.
    """
    _check_ab(a, b)
    _, _, d = _wed(a, b, t)
    return d / (a * a)


def solution_constant(n: int) -> float:
    """K_n with u = K_n E^n / (W D^(n-1/2)); equals 1/(32 pi) at n = 2."""
    if n < 2:
        raise ValueError(f"Need n >= 2, got {n}.")
    odd = math.prod(range(3, 2 * n - 2, 2)) if n >= 3 else 1
    return odd / (2.0 * math.pi ** (n - 1) * 2.0 ** (2 * n))


def fundamental_solution_quad(p: Point, params: GroupParams, cfg: QuadratureConfig) -> float:
    """Direct quadrature of the integral representation."""
    n = params.n
    a, b = ab_quantities(p)
    if not np.any(p.x):
        raise ValueError("Integral representation needs x != 0.")
    t = p.t
    pref = math.factorial(n - 1) / (2.0 * math.pi) ** n

    def head(s: float) -> float:
        z = a * s * s + 2.0 * b - 2.0j * t * math.sqrt(1.0 + s * s)
        return (s ** (2 * n - 2) / _ipow(z, n)).real

    # s -> 1/v: integrand becomes Re (A + 2B v^2 - 2 i t v sqrt(1+v^2))^(-n)
    def tail(v: float) -> float:
        z = a + 2.0 * b * v * v - 2.0j * t * v * math.sqrt(1.0 + v * v)
        return (1.0 / _ipow(z, n)).real

    val = _quad(head, 0.0, SPLIT_POINT, cfg) + _quad(tail, 0.0, 1.0 / SPLIT_POINT, cfg)
    return pref * val


def fundamental_solution_closed(p: Point, params: GroupParams) -> float:
    """Closed form K_n E^n / (W D^(n-1/2))."""
    if not np.any(p.x) and p.t == 0.0:
        raise ValueError("Fundamental solution is singular at the identity.")
    a, b = ab_quantities(p)
    t = p.t
    w, e, d = _wed(a, b, t)
    n = params.n
    ln = n * math.log(e) - math.log(w) - (n - 0.5) * math.log(d)
    return solution_constant(n) * math.exp(ln)


def compare_cloud(
    params: GroupParams,
    n_points: int,
    seed: int,
    cfg: QuadratureConfig,
) -> dict:
    """Quadrature vs closed form on a seeded cloud; returns an error summary.

    The cloud comes from inequalities.draw_cloud with CLOUD_BOX, CLOUD_T_MAX
    and CLOUD_MIN_RADIUS: x stays clear of the central line, where the
    integral representation is singular.
    """
    rng = np.random.default_rng(seed)
    coords = draw_cloud(rng, params, n_points, CLOUD_BOX, CLOUD_T_MAX, CLOUD_MIN_RADIUS, None)
    rel_errs = np.empty(n_points)
    for i, row in enumerate(coords):
        p = Point(row[:-1], float(row[-1]))
        uc = fundamental_solution_closed(p, params)
        rel_errs[i] = abs(fundamental_solution_quad(p, params, cfg) - uc) / abs(uc)
    return {
        "n": params.n,
        "points": n_points,
        "seed": seed,
        "max_rel_err": float(np.max(rel_errs)),
        "mean_rel_err": float(np.mean(rel_errs)),
        "worst_point": [float(v) for v in coords[np.argmax(rel_errs)]],
    }
