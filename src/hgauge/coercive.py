"""Empirical verification of coercive inequalities against sampled measures.

Three functional inequalities are fitted over a family of test functions f,
with all expectations replaced by Monte Carlo means over a SampleBatch.  The
measure is the batch's own (batch.spec); the exponents q and beta are the
inequalities', taken and checked here (_check_q, _check_beta):

    U-bound      E[eta(N) |f|^q]           <= C E[|grad f|^q] + D E[|f|^q]
    q-Poincare   E[|f - E f|^q]            <= C E[|grad f|^q]
    beta-LSI     E[|f|^q |log(|f|^q / E|f|^q)|^beta]
                                           <= C E[|grad f|^q] + D E[|f|^q]

Every test function is f = h(u) for a profile h and a base function u: the
coordinate x_1, or the gauge N(c^{-1} p) about a centre c.  Gradients are
horizontal and exact, |grad f| = |h'(u)| |grad u|.  X_j x_1 = delta_j1 gives
|grad x_1| = 1; left invariance gives |grad u| = |grad N| at c^{-1} p, which
partials_batch returns in closed form as sqrt(grad_sq).  The origin-centred
functions all read N and |grad N| from the batch (its gauge and its one
cached grad_norms pass), and every functional reads eta(N) from batch.eta;
a function with a centre makes one pass of its own.  One pass per function
(_powers) gives f, |f|^q and |grad f|^q to all three functionals and raises
RuntimeError when E|f|^q = 0 or when E|f|^q or E|grad f|^q overflows.

The fitter takes D in [a, 10a], a the empirical mean of eta, and returns in
closed form the smallest C that satisfies every test function and then the
smallest D that attains it.  The constant function pins D from below (its
gradient is zero), so the fitted pair is a genuine two-sided certificate, not
a one-parameter fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .group import Point, _check_n, compose, inverse
from .measures import MeasureSpec, SampleBatch, batch_means_se
from .norm import partials_batch

__all__ = [
    "TestFunction",
    "default_family",
    "UboundTerms",
    "FeasibilityResult",
    "ubound_terms",
    "fit_ubound_constants",
    "poincare_ratio",
    "beta_lsi_functional",
    "fit_beta_lsi",
]

Profile = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class TestFunction:
    """f = h(u), with profile(u) = (h(u), h'(u)).

    u is x_1 when radial is False, else N(center^{-1} p), the gauge about
    center (the identity when center is None).
    """

    name: str
    profile: Profile
    radial: bool = True
    center: Optional[Point] = None

    def evaluate(self, batch: SampleBatch) -> tuple[np.ndarray, np.ndarray]:
        """(f, |grad f|) on every row of the batch.

        The gradient is an exact 0 wherever h'(u) = 0, even at the centre
        itself (the identity of center^{-1} p), where |grad N| is undefined.
        """
        coords = batch.coords
        if not self.radial:
            u, grad_u = coords[:, 0], np.ones(coords.shape[0])
        elif self.center is None:
            u, grad_u = batch.gauge, batch.grad_norms
        else:
            y = compose(inverse(self.center), coords)
            pb = partials_batch(y[:, :-1], y[:, -1])
            u, grad_u = pb.N, np.sqrt(pb.grad_sq)
        h, dh = self.profile(u)
        live = dh != 0.0
        grad = np.zeros(h.shape)
        grad[live] = np.abs(dh[live]) * grad_u[live]
        return h, grad


def _smooth_step(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C^inf transition 1 -> 0 on s in [0, 1], with derivative."""
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    with np.errstate(over="ignore", divide="ignore"):
        h0 = np.exp(-1.0 / sm)
        h1 = np.exp(-1.0 / (1.0 - sm))
    tot = h0 + h1
    val = np.where(s <= 0, 1.0, 0.0)
    val[mid] = h1 / tot
    dval = np.zeros_like(val)
    d1 = -h1 / (1.0 - sm) ** 2
    dval[mid] = (d1 * tot - h1 * (h0 / sm ** 2 + d1)) / tot ** 2
    return val, dval


def _constant(u):
    return np.ones_like(u), np.zeros_like(u)


def _coordinate(u):
    return u.copy(), np.ones_like(u)


def _sine(u):
    return np.sin(u), np.cos(u)


def _exp_decay(r):
    h = np.exp(-r)
    return h, -h


def _power_cutoff(r):
    """N * cutoff(N); the cutoff is 1 on N <= 2 and 0 on N >= 4."""
    chi, dchi = _smooth_step((r - 2.0) / 2.0)
    return r * chi, chi + r * dchi / 2.0


def _log1p(r):
    return np.log1p(r), 1.0 / (1.0 + r)


def _bump(radius: float) -> Profile:
    """exp(1 - 1/(1 - (r/radius)^2)) on r < radius, 0 beyond."""

    def profile(r):
        s = r / radius
        h = np.zeros_like(s)
        dh = np.zeros_like(s)
        live = s < 1.0
        sl = s[live]
        with np.errstate(divide="ignore", over="ignore"):
            h[live] = np.exp(1.0 - 1.0 / (1.0 - sl ** 2))
            dh[live] = h[live] * (-2.0 * sl / (1.0 - sl ** 2) ** 2) / radius
        return h, dh

    return profile


def default_family(n: int) -> list[TestFunction]:
    """The eight standard test functions.

    The offset bump is centred at 3 e_1 with a radius wide enough (2.5) that
    its support overlaps the bulk of every default measure; a narrow far bump
    would have no Monte Carlo support at all.
    """
    _check_n(n)
    center = Point(np.eye(2 * n)[0] * 3.0, 0.0)
    return [
        TestFunction("constant", _constant, radial=False),
        TestFunction("coordinate-x1", _coordinate, radial=False),
        TestFunction("sin(1*x1)", _sine, radial=False),
        TestFunction("exp(-N)", _exp_decay),
        TestFunction("N^1*cutoff", _power_cutoff),
        TestFunction("log(1+N)", _log1p),
        TestFunction("bump(origin, r=1.5)", _bump(1.5)),
        TestFunction("bump(offset, r=2.5)", _bump(2.5), center=center),
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


def _check_q(q: float) -> None:
    """The one check of the inequalities' integrability exponent q."""
    if not 2 <= q < math.inf:
        raise ValueError(f"Need a finite q >= 2, got {q}.")


def _check_beta(spec: MeasureSpec, beta: float) -> None:
    """The one check of the beta-LSI exponent; a missing beta fails too.

    N^2 g^beta / g' must be bounded on {N >= 1}.  For g of degree d (k for
    power and power-log, p for alpha-power) it grows as N^(3-d+d beta), times
    alpha^(beta-1) / d or, for power-log, about (log N)^(beta-1) / d, so
    beta <= (d-3)/d; power-log at k = 3 admits no beta.  For cosh-power it is
    about N^(3-k) e^((beta-1) N^k) / k: beta < 1, or beta = 1 with k >= 3.
    """
    if beta is None or not 0 < beta < math.inf:
        raise ValueError(f"Need a finite beta > 0, got {beta}.")
    if spec.family == "cosh-power":
        if beta > 1 or (beta == 1 and spec.k < 3):
            raise ValueError(f"cosh-power family needs 0 < beta < 1, or beta = 1 with k >= 3, got beta={beta}.")
        return
    name = "p" if spec.family == "alpha-power" else "k"
    d = getattr(spec, name)
    if beta > (d - 3) / d:
        raise ValueError(f"{spec.family} family needs 0 < beta <= ({name}-3)/{name}, got beta={beta}.")


def _check_finite(f: TestFunction, what: str, mean: float) -> None:
    """Refuse a mean that overflowed: an inf term would make the fitted (C, D) nan."""
    if not math.isfinite(mean):
        raise RuntimeError(f"{what} overflows for {f.name!r}: lower q.")


def _powers(f: TestFunction, batch: SampleBatch, q: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, |f|^q, |grad f|^q) on every row.

    Raises RuntimeError if E|f|^q = 0, or if E|f|^q or E|grad f|^q overflows.
    """
    _check_q(q)
    values, grads = f.evaluate(batch)
    # a power past the float range is inf, and its mean is refused below
    with np.errstate(over="ignore"):
        fq, gq = np.abs(values) ** q, np.abs(grads) ** q
        mean_fq, mean_gq = float(np.mean(fq)), float(np.mean(gq))
    if mean_fq == 0.0:
        raise RuntimeError(f"E|f|^q = 0 for {f.name!r}: f vanishes on the sample, or |f|^q underflows.")
    _check_finite(f, "E|f|^q", mean_fq)
    _check_finite(f, "E|grad f|^q", mean_gq)
    return values, fq, gq


def ubound_terms(f: TestFunction, batch: SampleBatch, q: float, restrict_exterior: bool) -> UboundTerms:
    """Per-sample U-bound functionals for one test function.

    restrict_exterior keeps only {N >= 1} contributions on the left side,
    matching the exterior form of the bound; the right side is unchanged.
    """
    _, fv, grad_samples = _powers(f, batch, q)
    lhs_samples = batch.eta * fv
    if restrict_exterior:
        lhs_samples = np.where(batch.gauge >= 1.0, lhs_samples, 0.0)
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
    are >= 0 (the least such D when C = 0).  Infeasible when D > 10*anchor:
    the fit is then reported at (C, 10*anchor), where only zero-gradient rows
    fall short and max_violation is the largest shortfall.
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
    d = min(d, d_hi)
    final = tuple(float(v) for v in margins(c, d))
    return FeasibilityResult(
        c=c,
        d=d,
        max_violation=max(0.0, -min(final)),
        function_names=names,
        per_function_margins=final,
        d_grid=(float(d_lo), float(d_hi)),
        feasible=feasible,
    )


def fit_ubound_constants(
    functions: Sequence[TestFunction],
    batch: SampleBatch,
    q: float,
    restrict_exterior: bool = False,
) -> tuple[list[UboundTerms], FeasibilityResult]:
    """The U-bound terms of each function, and feasible (C, D) over the family.

    With restrict_exterior, a sample with no row at N >= 1 raises RuntimeError:
    every left side would be 0 and the fit would hold on no evidence.
    """
    eta = batch.eta
    if restrict_exterior:
        exterior = batch.gauge >= 1.0
        if not np.any(exterior):
            raise RuntimeError("No sample has N >= 1: the exterior U-bound has no support on the sample.")
        eta = np.where(exterior, eta, 0.0)
    terms = [ubound_terms(f, batch, q, restrict_exterior) for f in functions]
    rows = [(t.name, t.lhs, t.grad_term, t.mass_term) for t in terms]
    return terms, _fit_constants(rows, float(np.mean(eta)))


def poincare_ratio(f: TestFunction, batch: SampleBatch, q: float) -> tuple[float, float]:
    """(E|f - Ef|^q / E|grad f|^q, batch-means error of the ratio).

    The error is the delta-method one, batch_means_se(num - ratio * den) / E den,
    which stays finite when some batches barely touch the support of f.
    Raises RuntimeError when E|f|^q is 0, when E|grad f|^q is 0 (f is
    constant on the sample, or |grad f|^q underflows), and when E|f - Ef|^q
    or a mean of _powers overflows.
    """
    fv, _, den_samples = _powers(f, batch, q)
    with np.errstate(over="ignore"):  # |f - Ef| reaches 2 max|f|, so this power can overflow alone
        num_samples = np.abs(fv - fv.mean()) ** q
        num = float(np.mean(num_samples))
    _check_finite(f, "E|f - Ef|^q", num)
    den = float(np.mean(den_samples))
    if den == 0.0:
        raise RuntimeError(
            f"E|grad f|^q = 0 for {f.name!r}: f is constant on the sample, or |grad f|^q underflows."
        )
    ratio = num / den
    return ratio, batch_means_se(num_samples - ratio * den_samples) / den


def beta_lsi_functional(
    f: TestFunction, batch: SampleBatch, q: float, beta: float
) -> tuple[float, float, float]:
    """(entropy-like lhs, gradient term, mass term) for the beta-LSI."""
    _check_beta(batch.spec, beta)
    _, fq, grad_samples = _powers(f, batch, q)
    mean_fq = float(np.mean(fq))
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(fq > 0.0, np.abs(np.log(fq / mean_fq)) ** beta, 0.0)
    lhs = float(np.mean(fq * logs))
    return lhs, float(np.mean(grad_samples)), mean_fq


def fit_beta_lsi(
    functions: Sequence[TestFunction], batch: SampleBatch, q: float, beta: float
) -> FeasibilityResult:
    """Feasible (C, D) for the beta log-Sobolev form over the family."""
    rows = []
    for f in functions:
        lhs, grad, mass = beta_lsi_functional(f, batch, q, beta)
        rows.append((f.name, lhs, grad, mass))
    return _fit_constants(rows, float(np.mean(batch.eta)))
