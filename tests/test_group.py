import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgauge.group import (
    GroupParams,
    Point,
    compose,
    dilate,
    field_coefficients,
    field_coefficients_batch,
    inverse,
)


def _point(rng, params, scale=3.0):
    return Point(rng.uniform(-scale, scale, params.horizontal_dim), rng.uniform(-scale, scale))


coords_strategy = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
)


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(1)
    with pytest.raises(ValueError):
        GroupParams(0)
    p = GroupParams(3)
    assert p.horizontal_dim == 6
    assert p.ambient_dim == 7


def test_field_coefficients_frozen_example():
    # n = 2, x = (1, 2, 3, 4): first pair twists with weight 1/2, the
    # remaining pair with weight 1.
    c = field_coefficients(Point(np.array([1.0, 2.0, 3.0, 4.0]), 0.0))
    assert np.allclose(c, [-1.5, -4.0, 0.5, 2.0], atol=0, rtol=0)


def test_field_coefficients_batch_matches_single():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        x = rng.uniform(-2, 2, (40, 2 * n))
        batch = field_coefficients_batch(x)
        for i in range(40):
            single = field_coefficients(Point(x[i], 0.0))
            assert np.array_equal(batch[i], single)


def test_field_coefficients_skew_weights():
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        x = rng.uniform(-2, 2, 2 * n)
        c = field_coefficients(Point(x, 0.0))
        # skew in each pair: the twist never moves along x itself
        assert abs(x @ c) < 1e-14
        # weight 1/2 on the distinguished pair (1, n+1), weight 1 elsewhere
        assert c[0] == -0.5 * x[n] and c[n] == 0.5 * x[0]
        for j in range(1, n):
            assert c[j] == -x[j + n] and c[j + n] == x[j]


def test_identity_and_inverse():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        params = GroupParams(n)
        e = Point(np.zeros(params.horizontal_dim), 0.0)
        for _ in range(20):
            p = _point(rng, params)
            q = compose(p, e)
            assert np.allclose(q.x, p.x) and q.t == pytest.approx(p.t)
            r = compose(p, inverse(p))
            assert np.allclose(r.x, 0.0, atol=1e-12) and abs(r.t) < 1e-12


@settings(max_examples=60, deadline=None)
@given(coords_strategy, coords_strategy, coords_strategy, st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_associativity(xa, xb, xc, ta, tb, tc):
    a = Point(np.array(xa), ta)
    b = Point(np.array(xb), tb)
    c = Point(np.array(xc), tc)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.allclose(left.x, right.x, atol=1e-9)
    assert left.t == pytest.approx(right.t, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(coords_strategy, coords_strategy, st.floats(0.1, 4.0), st.floats(-5, 5), st.floats(-5, 5))
def test_dilation_is_homomorphism(xa, xb, lam, ta, tb):
    a = Point(np.array(xa), ta)
    b = Point(np.array(xb), tb)
    left = dilate(lam, compose(a, b))
    right = compose(dilate(lam, a), dilate(lam, b))
    assert np.allclose(left.x, right.x, rtol=1e-12, atol=1e-12)
    assert left.t == pytest.approx(right.t, rel=1e-12, abs=1e-12)


def test_dilation_scales_coordinates():
    p = Point(np.array([1.0, -2.0, 0.5, 3.0]), 4.0)
    q = dilate(2.0, p)
    assert np.array_equal(q.x, 2.0 * p.x)
    assert q.t == 16.0


def test_point_coords_roundtrip():
    p = Point(np.array([1.0, 2.0, 3.0, 4.0]), -0.25)
    c = p.coords()
    q = Point(c[:-1], c[-1])
    assert np.array_equal(q.x, p.x) and q.t == p.t


def test_point_is_immutable():
    p = Point(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    with pytest.raises((ValueError, AttributeError)):
        p.x[0] = 5.0


@pytest.mark.parametrize("width", [0, 2, 3, 5])
def test_point_and_batch_share_the_width_message(width):
    # a Point checks its width with the batch kernels' own check
    with pytest.raises(ValueError) as single:
        Point(np.ones(width), 0.0)
    with pytest.raises(ValueError) as batch:
        field_coefficients_batch(np.ones((2, width)))
    assert str(single.value) == str(batch.value)


def test_point_needs_flat_finite_coordinates():
    with pytest.raises(ValueError, match="flat array"):
        Point(np.ones((2, 2)), 0.0)
    with pytest.raises(ValueError, match="finite"):
        Point(np.array([1.0, np.nan, 0.0, 0.0]), 0.0)
    with pytest.raises(ValueError, match="finite"):
        Point(np.ones(4), np.inf)
