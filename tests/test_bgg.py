import functools
import json
import math

import numpy as np
import pytest

import pins
from conftest import dilate
from reference import closed_form_solution

from hgauge import bgg
from hgauge.bgg import (
    QuadratureError,
    compare_cloud,
    fundamental_solution_closed,
    fundamental_solution_quad,
    solution_constant,
)
from hgauge.cli import main
from hgauge.group import GroupParams, Point
from hgauge.inequalities import BOX, _draw
from hgauge.norm import norm_N

# -- fundamental solution ------------------------------------------------------


def test_solution_constant_values():
    assert solution_constant(2) == pytest.approx(1.0 / (32.0 * math.pi), rel=1e-15)
    assert solution_constant(3) == pytest.approx(3.0 / (128.0 * math.pi**2), rel=1e-15)
    # recursion K_{n+1} = K_n * (2n - 1) / (4 pi)
    for n in range(2, 9):
        assert solution_constant(n + 1) == pytest.approx(
            solution_constant(n) * (2 * n - 1) / (4.0 * math.pi), rel=1e-14
        )


@pytest.mark.parametrize("n", [1, 2.5])
def test_solution_constant_needs_integer_n_from_2(n):
    with pytest.raises(ValueError, match="integer n >= 2"):
        solution_constant(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrature_matches_closed_form(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(8):
        x = rng.uniform(-2, 2, 2 * n)
        t = rng.uniform(-4, 4)
        p = Point(x, t)
        u_quad = fundamental_solution_quad(p)
        u_closed = fundamental_solution_closed(p)
        assert u_quad == pytest.approx(u_closed, rel=1e-10)


def test_solution_times_gauge_power_is_constant():
    for n in (2, 3, 6):
        rng = np.random.default_rng(30 + n)
        k = solution_constant(n)
        for _ in range(20):
            p = Point(rng.uniform(-3, 3, 2 * n), rng.uniform(-6, 6))
            # u from the E^n / (W D^(n-1/2)) form, not from N; bgg's own
            # u = K_n N^(-2n) agrees with it too
            u = closed_form_solution(p)
            nn = norm_N(p)
            assert u * nn ** (2 * n) == pytest.approx(k, rel=1e-13)
            assert fundamental_solution_closed(p) == pytest.approx(u, rel=1e-13)


def test_solution_homogeneity():
    p = Point(np.array([1.0, -0.5, 0.3, 0.2, 1.1, -0.7]), 0.9)
    lam = 2.5
    u1 = fundamental_solution_closed(p)
    u2 = fundamental_solution_closed(dilate(lam, p))
    assert u2 == pytest.approx(u1 * lam ** (-2 * 3), rel=1e-12)


def test_compare_cloud_summary():
    params = GroupParams(2)
    out = compare_cloud(params, 30, seed=4)
    assert out["points"] == 30
    assert out["max_rel_err"] < 1e-8
    assert out["mean_rel_err"] <= out["max_rel_err"]
    assert len(out["worst_point"]) == 5


def test_compare_cloud_rows_equal_scalar_quadrature(monkeypatch):
    # one integrator: each row of compare_cloud's vectorised pass is the
    # one-row call bit for bit (rows never mix, sums run row by row).  Re I_n
    # is integrated once, and Re I_2 for the identities once more where n != 2
    seen = []
    rows = bgg._re_rows

    def spy(a, b, t, k):
        out = rows(a, b, t, k)
        seen.append((k, t.copy(), out))
        return out

    monkeypatch.setattr(bgg, "_re_rows", spy)
    for n in (2, 6):
        params = GroupParams(n)
        seen.clear()
        compare_cloud(params, 30, seed=5)
        x, t = _draw(params, 5, 0, 30, BOX, BOX * BOX, bgg.CLOUD_MIN_RADIUS, None, (0, 30))
        assert [k for k, _, _ in seen] == ([2] if n == 2 else [n, 2])
        _, seen_t, vals = seen[0]
        assert seen_t.tobytes() == t.tobytes()
        seen.clear()
        scalar = [fundamental_solution_quad(Point(xi, ti)) for xi, ti in zip(x, t)]
        assert np.array(scalar).tobytes() == bgg._solution(vals, n).tobytes()


# -- the n = 2 derivation steps, as compare_cloud reports them -----------------

IDENTITY_NS = (2, 3, 6, 8)


@functools.cache
def _identities(n):
    """compare_cloud's identities on a 200-point cloud at n (seed 1000 + n)."""
    return compare_cloud(GroupParams(n), 200, seed=1000 + n)["identities"]


def test_modulus_integral_closed_vs_quad():
    # pi / (4 A sqrt(D)) against quadrature of the modulus integrand
    assert max(_identities(n)["modulus_closed"] for n in IDENTITY_NS) < 1e-12


def test_real_part_identity():
    # Re I_2 splits as the modulus part minus the phase correction
    assert max(_identities(n)["split"] for n in IDENTITY_NS) < 1e-12


def test_phase_correction_is_time_derivative():
    # the phase correction equals -t d/dt of the modulus part, in closed form
    assert max(_identities(n)["t_derivative"] for n in IDENTITY_NS) < 1e-12


def test_pole_mean_against_root_oracle():
    # D / A^2 is the squared mean imaginary part of the modulus quartic's
    # upper-half-plane roots, found as companion-matrix eigenvalues
    assert max(_identities(n)["pole_roots"] for n in IDENTITY_NS) < 1e-12


@pytest.mark.parametrize("n", IDENTITY_NS)
def test_compare_cloud_identities(n, monkeypatch, capsys):
    ids = _identities(n)
    assert set(ids) == {"modulus_closed", "t_derivative", "split", "pole_roots"}
    assert max(ids.values()) < 1e-12
    # a relative 1e-6 error in the phase integrand fails bgg compare, though
    # quadrature and closed form still agree
    phase = bgg._phase_integrand
    monkeypatch.setattr(bgg, "_phase_integrand", lambda *args: phase(*args) * (1.0 + 1e-6))
    argv = ["--no-timestamp", "bgg", "compare", "--n", str(n), "--seed", str(1000 + n)]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["results"]["max_rel_err"] < 1e-8


@pytest.mark.parametrize("n", sorted(pins.COMPARE_DIGESTS))
def test_compare_cloud_digests(n):
    assert pins.digest(pins.compare_parts(n)) == pins.COMPARE_DIGESTS[n]


@pytest.mark.parametrize("n, x2, t", [(3, 1e-3, 10.0), (2, 1e-2, -1e3)])
def test_cancelling_points_raise(n, x2, t):
    # Re I_n cancels here: the integral of |integrand| exceeds it 4e14-fold
    # and 3e7-fold.  scipy's adaptive quad returned 5.94e-14 for the closed
    # form's 2.37e-6 at the first point and was 2.5e-8 off at the second,
    # both without raising
    x = np.zeros(2 * n)
    x[1] = x2
    with pytest.raises(QuadratureError):
        fundamental_solution_quad(Point(x, t))


def test_log_sweep_returns_only_accurate_values():
    # |x| in 10^[-3, 1], |t| in 10^[-3, 3]: a value is returned only if it is
    # within 1e-8 of the closed form.  About half the sweep raises, every
    # raising point being cancellation-limited (small |x| against |t|).
    rng = np.random.default_rng(0)
    returned = total = 0
    for n in (2, 3, 6, 8):
        for r in np.logspace(-3, 1, 9):
            for t in np.concatenate([np.logspace(-3, 3, 13), -np.logspace(-3, 3, 13)]):
                d = rng.normal(size=2 * n)
                p = Point(r * d / np.linalg.norm(d), float(t))
                total += 1
                try:
                    u = fundamental_solution_quad(p)
                except QuadratureError:
                    continue
                returned += 1
                assert u == pytest.approx(fundamental_solution_closed(p), rel=1e-8)
    assert returned >= 0.4 * total
