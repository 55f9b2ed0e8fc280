"""Empirical verification of coercive inequalities against sampled measures.

Three functional inequalities are fitted over a family of test functions f,
with all expectations replaced by Monte Carlo means over a SampleBatch:

    U-bound      E[eta(N) |f|^q]           <= C E[|grad f|^q] + D E[|f|^q]
    q-Poincare   E[|f - E f|^q]            <= C E[|grad f|^q]
    beta-LSI     E[|f|^q |log(|f|^q / E|f|^q)|^beta]
                                           <= C E[|grad f|^q] + D E[|f|^q]

Gradients are horizontal and exact.  The fitter takes D in [a, 10a], a the
empirical mean of eta, and returns in closed form the smallest C that
satisfies every test function and then the smallest D that attains it.  The
constant function pins D from below (its gradient is zero), so the fitted
pair is a genuine two-sided certificate, not a one-parameter fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .group import GroupParams, Point, field_coefficients, inverse
from .measures import MeasureSpec, SampleBatch, batch_means_se, eta_weight
from .norm import norm_batch, partials_batch

__all__ = [
    "TestFunction",
    "Constant",
    "Coordinate",
    "Oscillatory",
    "ExpDecay",
    "RadialPower",
    "RadialLog",
    "SmoothBump",
    "default_family",
    "UboundTerms",
    "FeasibilityResult",
    "ubound_terms",
    "fit_ubound_constants",
    "poincare_ratio",
    "beta_lsi_functional",
    "fit_beta_lsi",
]


class TestFunction:
    """Scalar test function with an exact horizontal gradient.

    value and horizontal_grad act on (m, 2n+1) coordinate arrays.
    """

    name: str = "abstract"

    def value(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def horizontal_grad(self, coords: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_norm(self, coords: np.ndarray) -> np.ndarray:
        g = self.horizontal_grad(coords)
        return np.sqrt(np.sum(g * g, axis=-1))


class Constant(TestFunction):
    def __init__(self, c: float = 1.0):
        self.c = float(c)
        self.name = "constant"

    def value(self, coords):
        return np.full(coords.shape[0], self.c)

    def horizontal_grad(self, coords):
        return np.zeros((coords.shape[0], coords.shape[1] - 1))


class Coordinate(TestFunction):
    """f = x_j (1-based horizontal index)."""

    def __init__(self, j: int = 1):
        if j < 1:
            raise ValueError("Coordinate index is 1-based.")
        self.j = j
        self.name = f"coordinate-x{j}"

    def value(self, coords):
        return coords[:, self.j - 1].copy()

    def horizontal_grad(self, coords):
        g = np.zeros((coords.shape[0], coords.shape[1] - 1))
        g[:, self.j - 1] = 1.0
        return g


class Oscillatory(TestFunction):
    """f = sin(omega x_j); X_j only (the twist never touches x_j itself)."""

    def __init__(self, j: int = 1, omega: float = 1.0):
        self.j = j
        self.omega = float(omega)
        self.name = f"sin({self.omega:g}*x{j})"

    def value(self, coords):
        return np.sin(self.omega * coords[:, self.j - 1])

    def horizontal_grad(self, coords):
        g = np.zeros((coords.shape[0], coords.shape[1] - 1))
        g[:, self.j - 1] = self.omega * np.cos(self.omega * coords[:, self.j - 1])
        return g


class _RadialProfile(TestFunction):
    """f = profile(N(y)), y = offset^{-1} * p; gradient via the chain rule.

    Left invariance makes the horizontal gradient at p equal to
    profile'(N(y)) * (grad N)(y).  Rows where profile' vanishes are exact
    zeros even on the central line of y.
    """

    def __init__(self, params: GroupParams, center: Optional[Point] = None):
        self.params = params
        self.center = center

    def _shifted(self, coords: np.ndarray) -> np.ndarray:
        if self.center is None:
            return coords
        # left translation by center^{-1}: y = c^{-1} * p
        cinv = inverse(self.center)
        out = np.empty_like(coords)
        out[:, :-1] = coords[:, :-1] + cinv.x
        # twist: t + tau + x_p . c(x_cinv)
        cvec = field_coefficients(cinv)
        out[:, -1] = cinv.t + coords[:, -1] + coords[:, :-1] @ cvec
        return out

    def _profile(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _profile_slope(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, coords):
        y = self._shifted(coords)
        return self._profile(norm_batch(y[:, :-1], y[:, -1]))

    def horizontal_grad(self, coords):
        y = self._shifted(coords)
        rr = norm_batch(y[:, :-1], y[:, -1])
        slope = self._profile_slope(rr)
        live = slope != 0.0
        g = np.zeros((coords.shape[0], coords.shape[1] - 1))
        if np.any(live):
            pb = partials_batch(y[live, :-1], y[live, -1])
            g[live] = slope[live, None] * pb.horizontal
        return g


class ExpDecay(_RadialProfile):
    """f = exp(-N)."""

    def __init__(self, params: GroupParams):
        super().__init__(params)
        self.name = "exp(-N)"

    def _profile(self, r):
        return np.exp(-r)

    def _profile_slope(self, r):
        return -np.exp(-r)


def _smooth_step(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C^inf transition 1 -> 0 on s in [0, 1], with derivative."""
    s = np.clip(s, 0.0, 1.0)
    inner = s > 0
    outer = s < 1
    mid = inner & outer
    h0 = np.zeros_like(s)
    h1 = np.zeros_like(s)
    with np.errstate(over="ignore", divide="ignore"):
        h0[mid] = np.exp(-1.0 / s[mid])
        h1[mid] = np.exp(-1.0 / (1.0 - s[mid]))
    h0[s >= 1] = math.exp(-1.0)
    h1[s <= 0] = math.exp(-1.0)
    val = np.where(s <= 0, 1.0, np.where(s >= 1, 0.0, h1 / (h0 + h1)))
    dval = np.zeros_like(s)
    if np.any(mid):
        sm = s[mid]
        d0 = h0[mid] / sm ** 2
        d1 = -h1[mid] / (1.0 - sm) ** 2
        tot = h0[mid] + h1[mid]
        dval[mid] = (d1 * tot - h1[mid] * (d0 + d1)) / tot ** 2
    return val, dval


class RadialPower(_RadialProfile):
    """f = N^a * cutoff(N); cutoff is 1 on N <= 2 and 0 on N >= 4."""

    def __init__(self, params: GroupParams, a: float = 1.0):
        super().__init__(params)
        if a < 1:
            raise ValueError("RadialPower needs a >= 1 for a bounded gradient.")
        self.a = float(a)
        self.name = f"N^{a:g}*cutoff"

    def _cut(self, r):
        return _smooth_step((r - 2.0) / 2.0)

    def _profile(self, r):
        chi, _ = self._cut(r)
        return r ** self.a * chi

    def _profile_slope(self, r):
        chi, dchi = self._cut(r)
        return self.a * r ** (self.a - 1.0) * chi + r ** self.a * dchi / 2.0


class RadialLog(_RadialProfile):
    """f = log(1 + N)."""

    def __init__(self, params: GroupParams):
        super().__init__(params)
        self.name = "log(1+N)"

    def _profile(self, r):
        return np.log1p(r)

    def _profile_slope(self, r):
        return 1.0 / (1.0 + r)


class SmoothBump(_RadialProfile):
    """f = exp(1 - 1/(1 - (m/radius)^2)) on {m < radius}, m = N(center^{-1} p)."""

    def __init__(self, params: GroupParams, center: Optional[Point] = None, radius: float = 1.5):
        super().__init__(params, center)
        if not radius > 0:
            raise ValueError("Bump radius must be positive.")
        self.radius = float(radius)
        where = "origin" if center is None else "offset"
        self.name = f"bump({where}, r={radius:g})"

    def _profile(self, r):
        s = r / self.radius
        out = np.zeros_like(s)
        live = s < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[live] = np.exp(1.0 - 1.0 / (1.0 - s[live] ** 2))
        return out

    def _profile_slope(self, r):
        s = r / self.radius
        out = np.zeros_like(s)
        live = s < 1.0
        sl = s[live]
        with np.errstate(divide="ignore", over="ignore"):
            out[live] = (
                np.exp(1.0 - 1.0 / (1.0 - sl ** 2))
                * (-2.0 * sl / (1.0 - sl ** 2) ** 2)
                / self.radius
            )
        return out


def default_family(params: GroupParams, bump_distance: float = 3.0) -> list[TestFunction]:
    """The eight standard test functions.

    The offset bump is centred at bump_distance along x_1 with a radius wide
    enough (2.5) that its support overlaps the bulk of every default measure;
    a narrow far bump would have no Monte Carlo support at all.
    """
    center = Point(np.eye(params.horizontal_dim)[0] * bump_distance, 0.0)
    return [
        Constant(),
        Coordinate(1),
        Oscillatory(1, 1.0),
        ExpDecay(params),
        RadialPower(params, 1.0),
        RadialLog(params),
        SmoothBump(params, None, radius=1.5),
        SmoothBump(params, center, radius=2.5),
    ]


@dataclass(frozen=True)
class UboundTerms:
    """Monte Carlo means (with batch-means errors) of the three functionals."""

    name: str
    lhs: float
    lhs_se: float
    grad_term: float
    grad_se: float
    mass_term: float
    mass_se: float


@dataclass(frozen=True)
class FeasibilityResult:
    c: float
    d: float
    max_violation: float
    function_names: tuple[str, ...]
    per_function_margins: tuple[float, ...]
    d_grid: tuple[float, float]
    feasible: bool

    def as_dict(self) -> dict:
        return {
            "C": self.c,
            "D": self.d,
            "max_violation": self.max_violation,
            "per_function": [
                {"name": n, "margin": m}
                for n, m in zip(self.function_names, self.per_function_margins)
            ],
            "d_grid": list(self.d_grid),
            "feasible": self.feasible,
        }


def _q_power(vals: np.ndarray, q: float) -> np.ndarray:
    return np.abs(vals) ** q


def ubound_terms(
    f: TestFunction,
    spec: MeasureSpec,
    batch: SampleBatch,
    restrict_exterior: bool = False,
) -> UboundTerms:
    """Per-sample U-bound functionals for one test function.

    restrict_exterior keeps only {N >= 1} contributions on the left side,
    matching the exterior form of the bound; the right side is unchanged.
    """
    coords = batch.coords
    norms = batch.norms()
    q = spec.q
    fv = _q_power(f.value(coords), q)
    lhs_samples = eta_weight(spec, norms) * fv
    if restrict_exterior:
        lhs_samples = np.where(norms >= 1.0, lhs_samples, 0.0)
    grad_samples = _q_power(f.grad_norm(coords), q)
    return UboundTerms(
        name=f.name,
        lhs=float(np.mean(lhs_samples)),
        lhs_se=batch_means_se(lhs_samples),
        grad_term=float(np.mean(grad_samples)),
        grad_se=batch_means_se(grad_samples),
        mass_term=float(np.mean(fv)),
        mass_se=batch_means_se(fv),
    )


def _fit_constants(
    rows: Sequence[tuple[str, float, float, float]],
    d_anchor: float,
) -> FeasibilityResult:
    """Least C >= 0, then least D in [anchor, 10*anchor], in closed form.

    Each row (name, lhs, grad, mass) asks C*grad + D*mass >= lhs.  C(D) is
    non-increasing, so C = C(10*anchor) and D = max (lhs - C*grad)/mass; C,
    and D from one ulp below, then step up by ulps until the reported margins
    are >= 0 (the least such D when C = 0).  Infeasible when D > 10*anchor.
    """
    names = tuple(r[0] for r in rows)
    lhs, grad, mass = (np.array([r[i] for r in rows]) for i in (1, 2, 3))
    d_lo, d_hi = d_anchor, 10.0 * d_anchor

    def margins(c: float, d: float) -> np.ndarray:
        return c * grad + d * mass - lhs

    live = grad > 0.0
    c = float(np.max((lhs[live] - d_hi * mass[live]) / grad[live], initial=0.0))
    while np.any(margins(c, d_hi)[live] < 0.0):
        c = float(np.nextafter(c, math.inf))
    need = lhs - c * grad
    with np.errstate(divide="ignore"):  # a row with no mass and need > 0 asks D = inf
        d = np.max(need[need > 0.0] / mass[need > 0.0], initial=0.0)
    d = min(max(d_lo, float(np.nextafter(d, -math.inf))), d_hi)
    while d <= d_hi and np.any(margins(c, d) < 0.0):
        d = float(np.nextafter(d, math.inf))
    feasible = d <= d_hi
    c, d = (c, d) if feasible else (math.inf, d_hi)
    final = tuple(float(v) for v in margins(c, d))
    return FeasibilityResult(
        c=c,
        d=d,
        max_violation=float(max(0.0, -min(final))) if feasible else math.inf,
        function_names=names,
        per_function_margins=final,
        d_grid=(float(d_lo), float(d_hi)),
        feasible=feasible,
    )


def fit_ubound_constants(
    functions: Sequence[TestFunction],
    spec: MeasureSpec,
    batch: SampleBatch,
    restrict_exterior: bool = False,
) -> tuple[list[UboundTerms], FeasibilityResult]:
    """The U-bound terms of each function, and feasible (C, D) over the family."""
    terms = [ubound_terms(f, spec, batch, restrict_exterior=restrict_exterior) for f in functions]
    norms = batch.norms()
    eta = eta_weight(spec, norms)
    if restrict_exterior:
        eta = np.where(norms >= 1.0, eta, 0.0)
    rows = [(t.name, t.lhs, t.grad_term, t.mass_term) for t in terms]
    return terms, _fit_constants(rows, float(np.mean(eta)))


def poincare_ratio(
    f: TestFunction,
    spec: MeasureSpec,
    batch: SampleBatch,
) -> tuple[float, float]:
    """(E|f - Ef|^q / E|grad f|^q, batch-means error of the ratio).

    The error is the delta-method one, batch_means_se(num - ratio * den) / E den,
    which stays finite when some batches barely touch the support of f.
    Raises when the gradient mass vanishes (constant f, or a function whose
    support misses the sample entirely).
    """
    coords = batch.coords
    fv = f.value(coords)
    num_samples = _q_power(fv - fv.mean(), spec.q)
    den_samples = _q_power(f.grad_norm(coords), spec.q)
    den = float(np.mean(den_samples))
    if den == 0.0:
        raise ValueError(f"Degenerate denominator for {f.name!r} (constant on the sample).")
    ratio = float(np.mean(num_samples)) / den
    return ratio, batch_means_se(num_samples - ratio * den_samples) / den


def beta_lsi_functional(
    f: TestFunction, spec: MeasureSpec, batch: SampleBatch
) -> tuple[float, float, float]:
    """(entropy-like lhs, gradient term, mass term) for the beta-LSI."""
    if spec.beta is None:
        raise ValueError("beta-LSI needs a family carrying a beta exponent.")
    coords = batch.coords
    q = spec.q
    fq = _q_power(f.value(coords), q)
    mean_fq = float(np.mean(fq))
    if mean_fq == 0.0:
        raise ValueError(f"{f.name!r} vanishes on the whole sample.")
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(fq > 0.0, np.abs(np.log(fq / mean_fq)) ** spec.beta, 0.0)
    lhs = float(np.mean(fq * logs))
    grad = float(np.mean(_q_power(f.grad_norm(coords), q)))
    return lhs, grad, mean_fq


def fit_beta_lsi(
    functions: Sequence[TestFunction], spec: MeasureSpec, batch: SampleBatch
) -> FeasibilityResult:
    """Feasible (C, D) for the beta log-Sobolev form over the family."""
    rows = []
    for f in functions:
        lhs, grad, mass = beta_lsi_functional(f, spec, batch)
        rows.append((f.name, lhs, grad, mass))
    anchor = float(np.mean(eta_weight(spec, batch.norms())))
    return _fit_constants(rows, anchor)
