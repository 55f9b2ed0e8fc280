"""An exact reference for norm's second-order calculus and for the split
objective's derivative.

N is written in mpmath as a function of (R, S, t) and differentiated there
with mp.diff, which evaluates at raised precision with a step far below
float64 resolution, so the reference's derivatives are exact to well past
float64.  It shares no formula with the kernels beyond the gauge itself and
the reduced (R, S, t) forms of L and <grad_H ., grad_H .>; the infinity-
Laplacian's grad |grad_H N|^2 is differentiated too, not derived by hand.
The finite-difference criteria stay as the full-space cross-checks.  The
cloud checks' chart core, norm._chart_slopes, is checked against the same
gradient: s_p = 2 N N_R, s_b = 2 N N_S and T = N |N_t|.  The
split objective f(alpha) is written here from the module docstring of
hgauge.inequalities, not from its code, and differentiated the same way.
"""

import numpy as np
import pytest
from mpmath import mp

from hgauge import inequalities, norm
from hgauge.norm import ROUNDING_GATE
from hgauge.inequalities import _split_slope, _split_terms, alpha_opt, shell_cloud, split_objective

DIGITS = 40
TOL = 1e-13
EPS = np.finfo(float).eps
# unit orders of differentiation in (R, S, t)
_UNIT = [tuple(int(i == j) for j in range(3)) for i in range(3)]


def _gauge(n):
    """N(R, S, t) in mpmath."""
    alpha = mp.mpf(1) / (4 * n)

    def f(r, s, t):
        a, b = (r + s) / 2, r / 4 + s / 2
        p = b * b + t * t
        e = b + mp.sqrt(p)
        return p**alpha * (a * e + t * t) ** (mp.mpf(1) / 2 - alpha) / mp.sqrt(e)

    return f


def _dot(r, s, f, g):
    """<grad_H F, grad_H G> from (R, S, t) gradients."""
    return 4 * r * f[0] * g[0] + 4 * s * f[1] * g[1] + (r / 4 + s) * f[2] * g[2]


def _reference(n, r, s, t):
    """N, its gradient and Hessian, L N, the residual of N^(2-Q) and
    Delta_inf N, at one (R, S, t) row."""
    f = _gauge(n)

    def g_sq(*z):
        grad = [mp.diff(f, z, o) for o in _UNIT]
        return _dot(z[0], z[1], grad, grad)

    with mp.workdps(DIGITS):
        z = tuple(mp.mpf(float(v)) for v in (r, s, t))
        r, s, _ = z
        nn = f(*z)
        grad = [mp.diff(f, z, o) for o in _UNIT]
        hess = [[mp.diff(f, z, tuple(map(sum, zip(oi, oj)))) for oj in _UNIT] for oi in _UNIT]
        lap = 4 * r * hess[0][0] + 4 * grad[0] + 4 * s * hess[1][1] + 4 * (n - 1) * grad[1]
        lap += (r / 4 + s) * hess[2][2]
        # L N^p = p N^(p-1) (L N + (p - 1) |grad_H N|^2 / N), p = 2 - Q = -2n
        g2 = _dot(r, s, grad, grad)
        residual = lap - (2 * n + 1) * g2 / nn
        inf_lap = _dot(r, s, [mp.diff(g_sq, z, o) for o in _UNIT], grad) / 2
        scalars = [float(v) for v in (nn, lap, residual, inf_lap)]
    return scalars, np.array(grad, dtype=float), np.array(hess, dtype=float)


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_second_order_matches_exact_reference(n):
    coords = shell_cloud(n, 12, seed=70 + n)
    x, t = coords[:, :-1], coords[:, -1]
    r, s, nn, grad, hess = norm._second_order(x, t)
    lap, lap_scale = norm._harmonicity_residual(x, t, 1.0)
    residual, res_scale = norm._harmonicity_residual(x, t, -2.0 * n)
    inf_lap, inf_scale = norm._infinity_laplacian(x, t)
    for i in range(len(t)):
        (n_ref, lap_ref, res_ref, inf_ref), grad_ref, hess_ref = _reference(n, r[i], s[i], t[i])
        assert abs(nn[i] - n_ref) <= TOL * n_ref
        assert np.max(np.abs(grad[:, i] - grad_ref)) <= TOL * np.max(np.abs(grad_ref))
        assert np.max(np.abs(hess[:, :, i] - hess_ref)) <= TOL * np.max(np.abs(hess_ref))
        assert abs(lap[i] - lap_ref) <= TOL * lap_scale[i]
        assert abs(residual[i] - res_ref) <= TOL * res_scale[i]
        # the witness's value is within its own floor of the exact one
        assert abs(inf_lap[i] - inf_ref) <= ROUNDING_GATE * EPS * inf_scale[i]


def _chart_reference(n, x, t):
    """s_p, s_b, T, N^2 |grad_H N|^2 / |x|^2 and N (x . grad N) / |x|^2 at one
    row, from mp.diff of N(R, S, t)."""
    f = _gauge(n)
    with mp.workdps(DIGITS):
        xs = [mp.mpf(float(v)) for v in x]
        r = xs[0] ** 2 + xs[n] ** 2
        s = sum(v * v for v in xs) - r
        z = (r, s, mp.mpf(float(t)))
        nn = f(*z)
        grad = [mp.diff(f, z, o) for o in _UNIT]
        sp, sb = 2 * nn * grad[0], 2 * nn * grad[1]
        ratio = nn * nn * _dot(r, s, grad, grad) / (r + s)
        return [float(v) for v in (sp, sb, nn * abs(grad[2]), ratio, (r * sp + s * sb) / (r + s))]


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_chart_slopes_match_exact_reference(n, monkeypatch):
    # random rows with tau = t/B log-uniform up to 1e6, both signs, plus the
    # edges phi = 0 (pure block), phi = 1 (pure pair), |tau| = 1e6 and t = 0.
    # Every value is at most 1 in magnitude; each is within 4 eps of the
    # exact one (0.8 eps is the worst seen), and so are the gradient check's
    # margins, which read the ratio off the chart's values
    rng = np.random.default_rng(90 + n)
    m = 12
    x = rng.uniform(-2.0, 2.0, (m, 2 * n))
    x[0, [0, n]] = 0.0
    x[1, [j for j in range(2 * n) if j not in (0, n)]] = 0.0
    tau = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3.0, 6.0, m)
    tau[1:4] = 1e6, -1e6, 0.0
    t = tau * norm.ab_batch(x)[1]
    _, sp, sb, tt = norm._chart_slopes(x.copy(), t.copy())
    captured = []
    monkeypatch.setattr(inequalities, "_cloud_reports", lambda names, fn, *rest: captured.append(fn))
    inequalities.check_gradient_bounds(n, 1, 0)
    radial, lower, upper = captured[0](x.copy(), t.copy())
    lower_const, upper_const = 2.0 ** -(5.0 + 2.0 / n), (2 * n + 1) ** 2 / (8.0 * n * n)
    for i in range(m):
        sp_ref, sb_ref, tt_ref, ratio_ref, x_dot_ref = _chart_reference(n, x[i], t[i])
        radial_ref = x_dot_ref + 0.25 / n
        got = [sp[i], sb[i], tt[i], lower[i], upper[i], radial[i]]
        want = [sp_ref, sb_ref, tt_ref, ratio_ref - lower_const, upper_const - ratio_ref, radial_ref]
        assert np.max(np.abs(np.subtract(got, want))) <= 4 * EPS, (i, got, want)


def _objective(n):
    """f(alpha) = 2^-(5+2/n) - a/(2n) - (2n+1)^2/(a 2^5 n^3 (n-1)^2) - a/(n(n-1)) in mpmath."""

    def f(a):
        inverse = (2 * n + 1) ** 2 / (a * 32 * mp.mpf(n) ** 3 * (n - 1) ** 2)
        return 2 ** -(5 + mp.mpf(2) / n) - a / (2 * n) - inverse - a / (n * (n - 1))

    return f


def test_split_slope_matches_exact_reference():
    # f and f' at 240 random (n, alpha), alpha within two decades of alpha_opt,
    # each within 4 eps times the sum of its terms' magnitudes
    rng = np.random.default_rng(28)
    for _ in range(240):
        n = int(rng.integers(2, 1001))
        alpha = alpha_opt(n) * 10.0 ** rng.uniform(-2, 2)
        slope, scale = _split_slope(alpha, n)
        with mp.workdps(DIGITS):
            f = _objective(n)
            f_ref, slope_ref = f(mp.mpf(alpha)), mp.diff(f, mp.mpf(alpha))
        assert abs(split_objective(alpha, n) - float(f_ref)) <= 4 * EPS * sum(map(abs, _split_terms(alpha, n)))
        assert abs(slope - float(slope_ref)) <= 4 * EPS * scale


def test_split_slope_vanishes_at_alpha_opt_within_rounding():
    # the exact f'(alpha_opt) is rounding alone for every n up to 1000
    ratios = []
    for n in range(2, 1001):
        slope, scale = _split_slope(alpha_opt(n), n)
        ratios.append(abs(slope) / (EPS * scale))
    assert max(ratios) <= ROUNDING_GATE
