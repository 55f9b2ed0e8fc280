import hashlib
import math

import numpy as np
import pytest

from hgauge import bgg
from hgauge.bgg import (
    QuadratureConfig,
    QuadratureError,
    compare_cloud,
    fundamental_solution_closed,
    fundamental_solution_quad,
    modulus_integral,
    modulus_integral_quad,
    phase_correction_quad,
    pole_imag_mean_sq,
    real_part_integral,
    real_part_integral_quad,
    solution_constant,
)
from hgauge.group import GroupParams, Point, dilate
from hgauge.inequalities import draw_rows
from hgauge.norm import norm_N

CFG = QuadratureConfig()


def _admissible_triples(rng, m):
    """Random (a, b, t) with b <= a <= 2b, the range the quadratics take."""
    b = rng.uniform(0.2, 4.0, m)
    a = b * rng.uniform(1.0, 2.0, m)
    t = rng.uniform(-6.0, 6.0, m)
    return a, b, t


# -- closed forms vs quadrature ------------------------------------------------


def test_modulus_integral_closed_vs_quad():
    rng = np.random.default_rng(7)
    a, b, t = _admissible_triples(rng, 25)
    for ai, bi, ti in zip(a, b, t):
        closed = modulus_integral(ai, bi, ti)
        quad = modulus_integral_quad(ai, bi, ti, CFG)
        assert closed == pytest.approx(quad, rel=1e-9)


def test_real_part_identity():
    # the full integral splits as modulus part minus phase correction
    rng = np.random.default_rng(8)
    a, b, t = _admissible_triples(rng, 25)
    for ai, bi, ti in zip(a, b, t):
        whole = real_part_integral_quad(ai, bi, ti, CFG)
        split = modulus_integral(ai, bi, ti) - phase_correction_quad(ai, bi, ti, CFG)
        assert whole == pytest.approx(split, rel=1e-6)
        assert whole == pytest.approx(real_part_integral(ai, bi, ti), rel=1e-6)


def test_phase_correction_is_time_derivative():
    # correction = -t * d/dt (modulus integral)
    rng = np.random.default_rng(9)
    a, b, t = _admissible_triples(rng, 15)
    for ai, bi, ti in zip(a, b, t):
        h = 1e-5 * max(1.0, abs(ti))
        der = (modulus_integral(ai, bi, ti + h) - modulus_integral(ai, bi, ti - h)) / (2 * h)
        want = -ti * der
        got = phase_correction_quad(ai, bi, ti, CFG)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-10)


def test_pole_mean_against_root_oracle():
    # the closed form equals the squared mean of the two upper-half-plane
    # root imaginary parts of the modulus quartic
    rng = np.random.default_rng(10)
    a, b, t = _admissible_triples(rng, 40)
    for ai, bi, ti in zip(a, b, t):
        quartic = [ai**2, 0.0, 4 * ai * bi + 4 * ti**2, 0.0, 4 * bi**2 + 4 * ti**2]
        roots = np.roots(quartic)
        upper = np.sort(roots.imag[roots.imag > 0])
        assert upper.size == 2
        # all four roots sit on the imaginary axis
        assert np.max(np.abs(roots.real)) < 1e-8 * np.max(np.abs(roots.imag))
        want = float(np.mean(upper)) ** 2
        assert pole_imag_mean_sq(ai, bi, ti) == pytest.approx(want, rel=1e-10)


# -- fundamental solution ------------------------------------------------------


def test_solution_constant_values():
    assert solution_constant(2) == pytest.approx(1.0 / (32.0 * math.pi), rel=1e-15)
    assert solution_constant(3) == pytest.approx(3.0 / (128.0 * math.pi**2), rel=1e-15)
    # recursion K_{n+1} = K_n * (2n - 1) / (4 pi)
    for n in range(2, 9):
        assert solution_constant(n + 1) == pytest.approx(
            solution_constant(n) * (2 * n - 1) / (4.0 * math.pi), rel=1e-14
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrature_matches_closed_form(n):
    params = GroupParams(n)
    rng = np.random.default_rng(20 + n)
    for _ in range(8):
        x = rng.uniform(-2, 2, 2 * n)
        t = rng.uniform(-4, 4)
        p = Point(x, t)
        u_quad = fundamental_solution_quad(p, params, CFG)
        u_closed = fundamental_solution_closed(p, params)
        assert u_quad == pytest.approx(u_closed, rel=1e-10)


def test_solution_times_gauge_power_is_constant():
    for n in (2, 3, 6):
        params = GroupParams(n)
        rng = np.random.default_rng(30 + n)
        k = solution_constant(n)
        for _ in range(20):
            p = Point(rng.uniform(-3, 3, 2 * n), rng.uniform(-6, 6))
            u = fundamental_solution_closed(p, params)
            nn = norm_N(p, params)
            assert u * nn ** (2 * n) == pytest.approx(k, rel=1e-13)


def test_solution_homogeneity():
    params = GroupParams(3)
    p = Point(np.array([1.0, -0.5, 0.3, 0.2, 1.1, -0.7]), 0.9)
    lam = 2.5
    u1 = fundamental_solution_closed(p, params)
    u2 = fundamental_solution_closed(dilate(lam, p), params)
    assert u2 == pytest.approx(u1 * lam ** (-2 * 3), rel=1e-12)


def test_compare_cloud_summary():
    params = GroupParams(2)
    out = compare_cloud(params, 30, seed=4, cfg=CFG)
    assert out["points"] == 30
    assert out["max_rel_err"] < 1e-8
    assert out["mean_rel_err"] <= out["max_rel_err"]
    assert len(out["worst_point"]) == 5


def test_compare_cloud_rows_equal_scalar_quadrature(monkeypatch):
    # one integrator: each row of compare_cloud's vectorised pass is the
    # one-row call bit for bit (rows never mix, sums run row by row)
    seen = []
    rows = bgg._solution_rows

    def spy(a, b, t, n, cfg):
        out = rows(a, b, t, n, cfg)
        seen.append((t.copy(), out))
        return out

    monkeypatch.setattr(bgg, "_solution_rows", spy)
    for n in (2, 6):
        params = GroupParams(n)
        seen.clear()
        compare_cloud(params, 30, seed=5, cfg=CFG)
        coords = draw_rows(
            params, 5, 0, 30, bgg.CLOUD_BOX, bgg.CLOUD_T_MAX, bgg.CLOUD_MIN_RADIUS, None, (0, 30)
        )
        (t, vals), = seen
        assert t.tobytes() == coords[:, -1].tobytes()
        seen.clear()
        scalar = [fundamental_solution_quad(Point(r[:-1], r[-1]), params, CFG) for r in coords]
        assert np.array(scalar).tobytes() == vals.tobytes()


# sha256 prefixes of compare_cloud's rows (x, then t) at criterion 01's
# points and seeds, recorded from the sequential rejection sampler that the
# positional one replaced: none of these clouds rejects a row
COMPARE_DIGESTS = {
    2: "eb3a8616709926a3eacf574dfbde47f8",
    3: "0f99f33ffcda0e15719629b086c86079",
    6: "3d6d30adc159982734c1f6f32390e1e9",
    8: "fecbd3abab63648d89d9fd39e960fda4",
}


@pytest.mark.parametrize("n", sorted(COMPARE_DIGESTS))
def test_compare_cloud_digests(n, monkeypatch):
    h = hashlib.sha256()
    ab, rows = bgg.ab_batch, bgg._solution_rows

    def ab_spy(x):
        h.update(x.tobytes())
        return ab(x)

    def rows_spy(a, b, t, n, cfg):
        h.update(t.tobytes())
        return rows(a, b, t, n, cfg)

    monkeypatch.setattr(bgg, "ab_batch", ab_spy)
    monkeypatch.setattr(bgg, "_solution_rows", rows_spy)
    compare_cloud(GroupParams(n), 200, seed=1000 + n, cfg=CFG)
    assert h.hexdigest()[:32] == COMPARE_DIGESTS[n]


@pytest.mark.parametrize("n, x2, t", [(3, 1e-3, 10.0), (2, 1e-2, -1e3)])
def test_cancelling_points_raise(n, x2, t):
    # Re I_n cancels here: the integral of |integrand| exceeds it 4e14-fold
    # and 3e7-fold.  scipy's adaptive quad returned 5.94e-14 for the closed
    # form's 2.37e-6 at the first point and was 2.5e-8 off at the second,
    # both without raising
    x = np.zeros(2 * n)
    x[1] = x2
    with pytest.raises(QuadratureError):
        fundamental_solution_quad(Point(x, t), GroupParams(n), CFG)


def test_log_sweep_returns_only_accurate_values():
    # |x| in 10^[-3, 1], |t| in 10^[-3, 3]: a value is returned only if it is
    # within 1e-8 of the closed form.  About half the sweep raises, every
    # raising point being cancellation-limited (small |x| against |t|).
    rng = np.random.default_rng(0)
    returned = total = 0
    for n in (2, 3, 6, 8):
        params = GroupParams(n)
        for r in np.logspace(-3, 1, 9):
            for t in np.concatenate([np.logspace(-3, 3, 13), -np.logspace(-3, 3, 13)]):
                d = rng.normal(size=2 * n)
                p = Point(r * d / np.linalg.norm(d), float(t))
                total += 1
                try:
                    u = fundamental_solution_quad(p, params, CFG)
                except QuadratureError:
                    continue
                returned += 1
                assert u == pytest.approx(fundamental_solution_closed(p, params), rel=1e-8)
    assert returned >= 0.4 * total
