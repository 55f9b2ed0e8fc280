import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pins
from conftest import FD_STEP, dilate, norm_field
from reference import fd_gradient, horizontal

from hgauge.group import GroupParams, Point
from hgauge.inequalities import sample_cloud
from hgauge.norm import (
    PartialsBatch,
    ab_batch,
    exact_partials,
    norm_N,
    norm_batch,
    partials_batch,
)


def _cloud(rng, n, m, scale=3.0):
    x = rng.uniform(-scale, scale, (m, 2 * n))
    t = rng.uniform(-(scale**2), scale**2, m)
    return x, t


# -- values -------------------------------------------------------------------


def test_unit_pair_point_n2():
    # N(e_1, 0) = 2^(-3/4) for n = 2: A = 1/2, B = 1/4, D = A*B = 1/8,
    # E = B, so N = B^(1/8) (1/8)^(3/8) / B^(1/2) = 2^(-3/4).
    p = Point(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    assert norm_N(p) == pytest.approx(2.0 ** -0.75, abs=1e-15)


def test_central_line_is_sqrt_t():
    for t in (0.25, 1.0, 7.5, 1e-8, 4e6):
        p = Point(np.zeros(6), t)
        assert norm_N(p) == pytest.approx(np.sqrt(t), rel=1e-14)
        q = Point(np.zeros(6), -t)
        assert norm_N(q) == pytest.approx(np.sqrt(t), rel=1e-14)


def test_origin_is_zero():
    assert norm_N(Point(np.zeros(4), 0.0)) == 0.0


def test_ab_identities():
    rng = np.random.default_rng(3)
    x, _ = _cloud(rng, 4, 300)
    a, b = ab_batch(x)
    r_pair = x[:, 0] ** 2 + x[:, 4] ** 2
    s_rest = np.sum(x**2, axis=1) - r_pair
    assert np.allclose(a, r_pair / 2 + s_rest / 2, rtol=1e-14)
    assert np.allclose(b, r_pair / 4 + s_rest / 2, rtol=1e-14)
    assert np.all(b <= a + 1e-15)
    assert np.all(a <= 2 * b + 1e-15)
    assert np.allclose(a - b, r_pair / 4, rtol=1e-13, atol=1e-15)
    assert np.allclose(2 * b - a, s_rest / 2, rtol=1e-13, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-8, 8, allow_nan=False), min_size=4, max_size=4),
    st.floats(-30, 30, allow_nan=False),
    st.floats(0.05, 10.0),
)
def test_homogeneity(xs, t, lam):
    p = Point(np.array(xs), t)
    n0 = norm_N(p)
    n1 = norm_N(dilate(lam, p))
    assert n1 == pytest.approx(lam * n0, rel=1e-12, abs=1e-12)


def test_symmetry_under_negation():
    rng = np.random.default_rng(9)
    x, t = _cloud(rng, 3, 100)
    assert np.allclose(norm_batch(x, t), norm_batch(-x, t), rtol=1e-15)
    assert np.allclose(norm_batch(x, t), norm_batch(x, -t), rtol=1e-15)


def test_extreme_scales_stay_finite():
    # quartic intermediates cap the usable coordinate range near 1e75
    for s in (1e-70, 1e-30, 1e30, 1e70):
        p = Point(np.array([s, 0.0, s, 0.0]), 0.0)
        v = norm_N(p)
        assert np.isfinite(v) and v > 0
        # degree-1 homogeneity pins the value to s * N(unit point)
        unit = norm_N(Point(np.array([1.0, 0.0, 1.0, 0.0]), 0.0))
        assert v == pytest.approx(s * unit, rel=1e-12)


@pytest.mark.parametrize("n", [2, 6])
def test_empty_batch_gives_empty_arrays(n):
    x, t = np.empty((0, 2 * n)), np.empty(0)
    assert norm_batch(x, t).shape == (0,)
    pb = partials_batch(x, t)
    assert pb.N.shape == pb.grad_sq.shape == pb.x_dot.shape == (0,)
    assert pb.dN_dx.shape == (0, 2 * n)


@pytest.mark.parametrize("n", [2, 6])
def test_nan_and_identity_rows(n):
    # the identity is exactly 0 with NaN slopes; a NaN row stays NaN; neither
    # touches its neighbours
    x = np.zeros((4, 2 * n))
    x[1, 0] = np.nan
    x[3, 1] = 1.5
    t = np.array([0.0, 0.7, np.nan, -0.4])
    want = norm_batch(x[3:], t[3:])[0]
    nn = norm_batch(x, t)
    assert nn[0] == 0.0 and np.isnan(nn[1]) and np.isnan(nn[2]) and nn[3] == want
    pb = partials_batch(x, t)
    assert np.array_equal(pb.N, nn, equal_nan=True)
    for v in (pb.pair_slope, pb.block_slope, pb.time_slope, pb.grad_sq, pb.x_dot):
        assert np.all(np.isnan(v[:3])) and np.isfinite(v[3])
    assert pb.grad_sq[3] == partials_batch(x[3:], t[3:]).grad_sq[0]


@pytest.mark.parametrize("n", sorted(pins.PARTIALS_DIGESTS))
def test_partials_batch_digests(n):
    parts = pins.partials_parts(n)
    assert np.isnan(parts["pair_slope"][2004]) and parts["N"][2004] == 0.0
    assert pins.digest(parts) == pins.PARTIALS_DIGESTS[n]


# -- derivatives --------------------------------------------------------------


def _rational_slopes(x, t, n):
    """Independent expanded rational forms of the three slope functions.

    Derived by differentiating N = P^(1/4n) D^(1/2 - 1/4n) / E^(1/2) by hand
    and clearing denominators; kept verbatim as a cross-check against the
    grouped expressions used in production.
    """
    pb = partials_batch(x, t)
    a, b, nn = pb.A, pb.B, pb.N
    p = b * b + t * t
    w = np.sqrt(p)
    e = b + w
    d = a * b + t * t + a * w
    pref = p ** (1 / (2 * n)) / (4 * n * nn) / (e * p * d ** (1 / (2 * n)))
    num_pair = (
        0.5 * a * b**2
        + (b - a / 2) * t**2
        + 0.5 * w * a * b
        + (n - 1) * p * e
        + n * b * w * e
    )
    num_block = a * b * w + a * b**2 + (2 * b - a) * t**2 + (2 * n - 1) * b * w * e - t**2 * w
    num_time = 2 * b * (a - b) + a * w + 2 * n * (
        2 * b**3 + 2 * t**2 * b + 2 * b**2 * w + t**2 * w
    ) / e
    return pref * num_pair, pref * num_block, pref * num_time


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_slopes_match_rational_forms(n):
    rng = np.random.default_rng(100 + n)
    x, t = _cloud(rng, n, 500)
    pb = partials_batch(x, t)
    pair, block, time = _rational_slopes(x, t, n)
    assert np.allclose(pb.pair_slope, pair, rtol=1e-11)
    assert np.allclose(pb.block_slope, block, rtol=1e-11)
    assert np.allclose(pb.time_slope, time, rtol=1e-11)


@pytest.mark.parametrize("n", [2, 6, 10])
def test_closed_forms_match_horizontal_contraction(n):
    # grad_sq and x_dot come from per-row scalars; contract the horizontal
    # gradient itself as the reference
    coords = sample_cloud(GroupParams(n), 20_000, seed=300 + n)
    x = coords[:, :-1]
    pb = partials_batch(x, coords[:, -1])
    horiz = horizontal(pb)
    want_sq = np.sum(horiz * horiz, axis=1)
    assert np.all(np.abs(pb.grad_sq - want_sq) <= 1e-12 * want_sq)
    # x_dot cancels where the slopes differ in sign; bound by its terms' size
    r = x[:, 0] ** 2 + x[:, n] ** 2
    s = np.sum(x * x, axis=1) - r
    scale = r * np.abs(pb.pair_slope) + s * np.abs(pb.block_slope)
    want_dot = np.sum(x * horiz, axis=1)
    assert np.all(np.abs(pb.x_dot - want_dot) <= 1e-12 * scale)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_gradient_matches_finite_differences(n):
    rng = np.random.default_rng(200 + n)
    x, t = _cloud(rng, n, 60)
    keep = np.linalg.norm(x, axis=1) > 0.5
    coords = np.column_stack([x, t])[keep]
    fd = fd_gradient(norm_field, coords, FD_STEP)
    pb = partials_batch(coords[:, :-1], coords[:, -1])
    exact = np.column_stack([pb.dN_dx, pb.dN_dt])
    scale = np.maximum(np.abs(exact), 1e-3)
    assert np.max(np.abs(fd - exact) / scale) < 5e-7


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 6])
def test_partials_on_central_line_match_finite_differences(n):
    # away from the identity the central line is smooth: exact, finite, no warning
    coords = np.zeros((3, 2 * n + 1))
    coords[:, -1] = [0.3, -2.0, 7.5]
    pb = partials_batch(coords[:, :-1], coords[:, -1])
    exact = np.column_stack([pb.dN_dx, pb.dN_dt])
    assert np.all(np.isfinite(exact)) and np.all(np.isfinite(pb.grad_sq))
    fd = fd_gradient(norm_field, coords, FD_STEP)
    assert np.max(np.abs(fd - exact)) < 1e-9


def test_exact_partials_single_point_consistency():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, 6)
    p = Point(x, 0.7)
    ev = exact_partials(p)
    pb = partials_batch(x[None, :], np.array([0.7]))
    assert ev.N == pytest.approx(float(pb.N[0]), rel=1e-15)
    assert np.allclose(ev.dN_dx, pb.dN_dx[0])
    assert ev.dN_dt == pytest.approx(float(pb.dN_dt[0]))
    # gradient norm decomposes over the horizontal fields
    assert ev.grad_sq == pytest.approx(float(np.sum(horizontal(ev) ** 2)), rel=1e-13)
    # the twist cancels in the radial combination
    assert ev.x_dot == pytest.approx(float(x @ ev.dN_dx), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_exact_partials_is_the_batch_row_bit_for_bit(n):
    # one record type: the single-point record holds the bytes of its
    # one-row batch, derived fields included, over 10^+-100 and on x = 0
    rng = np.random.default_rng(100 + n)
    names = PartialsBatch._fields + ("grad_sq", "x_dot", "dN_dx")
    for i in range(300):
        s = 10.0 ** rng.uniform(-100, 100)
        x = rng.uniform(-2, 2, 2 * n) * s if i % 5 else np.zeros(2 * n)
        t = float(rng.uniform(-3, 3)) * s * s
        # the kernel overflows past about 1e75 (NaN or inf fields, compared too)
        with np.errstate(all="ignore"):
            ev = exact_partials(Point(x, t))
            pb = partials_batch(x[None, :], np.asarray([t]))
            for name in names:
                got, want = np.asarray(getattr(ev, name)), getattr(pb, name)[0]
                assert got.tobytes() == np.asarray(want).tobytes(), (name, x, t)
            assert horizontal(ev).tobytes() == horizontal(pb)[0].tobytes(), (x, t)


def test_exact_partials_rejects_only_identity():
    # the central line is smooth away from the identity: finite and FD-exact
    p = Point(np.zeros(4), 1.0)
    ev = exact_partials(p)
    exact = np.append(ev.dN_dx, ev.dN_dt)
    fd = fd_gradient(norm_field, p.coords()[None, :], FD_STEP)[0]
    assert np.all(np.isfinite(exact))
    assert np.max(np.abs(fd - exact)) < 1e-9
    with pytest.raises(ValueError):
        exact_partials(Point(np.zeros(4), 0.0))


def test_gradient_is_homogeneous_degree_zero():
    # dN/dx is degree 0 under the dilations, dN/dt degree -1
    rng = np.random.default_rng(8)
    x = rng.uniform(-2, 2, 4)
    p = Point(x, 1.3)
    lam = 3.7
    ev1 = exact_partials(p)
    ev2 = exact_partials(dilate(lam, p))
    assert np.allclose(ev2.dN_dx, ev1.dN_dx, rtol=1e-12)
    assert ev2.dN_dt == pytest.approx(ev1.dN_dt / lam, rel=1e-12)
    assert ev2.grad_sq == pytest.approx(ev1.grad_sq, rel=1e-12)


def test_pair_block_split_frozen_point():
    # x = e_1 + e_2 (one pair coordinate, one block coordinate), t = 0.3, n = 2
    x = np.array([[1.0, 1.0, 0.0, 0.0]])
    t = np.array([0.3])
    pb = partials_batch(x, t)
    # dN/dx_1 uses the pair slope, dN/dx_2 the block slope
    assert pb.dN_dx[0, 0] == pytest.approx(float(pb.pair_slope[0]), rel=1e-15)
    assert pb.dN_dx[0, 1] == pytest.approx(float(pb.block_slope[0]), rel=1e-15)
    assert pb.dN_dx[0, 2] == 0.0
    assert pb.dN_dx[0, 3] == 0.0
