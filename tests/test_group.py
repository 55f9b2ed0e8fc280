import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dilate

from hgauge import bgg, cli, coercive, fd, group, inequalities, measures, norm
from hgauge.group import (
    Point,
    compose,
    field_coefficients_batch,
    inverse,
)


def _point(rng, n, scale=3.0):
    return Point(rng.uniform(-scale, scale, 2 * n), rng.uniform(-scale, scale))


coords_strategy = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
)


# every public function that takes the layer parameter n, called with valid other arguments
TAKES_N = {
    "run_chain": lambda n: measures.run_chain(
        measures.MeasureSpec("power", k=4.0), n, measures.SamplerConfig(n_steps=100, burn_in=50), 0
    ),
    "sample_cloud": lambda n: inequalities.sample_cloud(n, 10, 0),
    "shell_cloud": lambda n: inequalities.shell_cloud(n, 10, 0),
    "check_gradient_bounds": lambda n: inequalities.check_gradient_bounds(n, 10, 0),
    "check_partial_bounds": lambda n: inequalities.check_partial_bounds(n, 10, 0),
    "compare_cloud": lambda n: bgg.compare_cloud(n, 10, 0),
    "default_family": coercive.default_family,
    "split_objective": lambda n: inequalities.split_objective(0.1, n),
    "alpha_opt": inequalities.alpha_opt,
    "coercivity_margin": inequalities.coercivity_margin,
    "solution_constant": bgg.solution_constant,
}


def test_takes_n_lists_every_public_function_with_an_n():
    found = set()
    for module in (bgg, cli, coercive, fd, group, inequalities, measures, norm):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and "n" in inspect.signature(obj).parameters:
                found.add(name)
    assert found == set(TAKES_N)


@pytest.mark.parametrize("n", [1, 2.0])
@pytest.mark.parametrize("name", sorted(TAKES_N))
def test_every_function_taking_n_refuses_a_bad_one(name, n):
    # one check, group._check_n, before any other use of n
    with pytest.raises(ValueError, match=re.escape(f"Need an integer n >= 2, got {n!r}.")):
        TAKES_N[name](n)


def test_field_coefficients_frozen_example():
    # n = 2, x = (1, 2, 3, 4): first pair twists with weight 1/2, the
    # remaining pair with weight 1.
    c = field_coefficients_batch(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(c, [-1.5, -4.0, 0.5, 2.0], atol=0, rtol=0)


def test_field_coefficients_batch_matches_single():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        x = rng.uniform(-2, 2, (40, 2 * n))
        batch = field_coefficients_batch(x)
        for i in range(40):
            single = field_coefficients_batch(x[i])
            assert np.array_equal(batch[i], single)


def test_field_coefficients_skew_weights():
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        x = rng.uniform(-2, 2, 2 * n)
        c = field_coefficients_batch(x)
        # skew in each pair: the twist never moves along x itself
        assert abs(x @ c) < 1e-14
        # weight 1/2 on the distinguished pair (1, n+1), weight 1 elsewhere
        assert c[0] == -0.5 * x[n] and c[n] == 0.5 * x[0]
        for j in range(1, n):
            assert c[j] == -x[j + n] and c[j + n] == x[j]


def test_identity_and_inverse():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        e = Point(np.zeros(2 * n), 0.0)
        for _ in range(20):
            p = _point(rng, n)
            q = compose(p, e)
            assert np.allclose(q.x, p.x) and q.t == pytest.approx(p.t)
            r = compose(p, inverse(p))
            assert np.allclose(r.x, 0.0, atol=1e-12) and abs(r.t) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_compose_on_rows_equals_point_products(n):
    # one group law for a Point and for rows, bit for bit: each row's twist
    # is summed on its own, whatever its place in the batch
    rng = np.random.default_rng(n)
    p = _point(rng, n)
    assert np.all(field_coefficients_batch(p.x) != 0.0)  # every twist term counts
    rows = rng.uniform(-3, 3, (1000, 2 * n + 1))
    out = compose(p, rows)
    each = np.array([compose(p, Point(r[:-1], r[-1])).coords() for r in rows])
    assert out.shape == rows.shape
    assert out.tobytes() == each.tobytes()
    with pytest.raises(ValueError, match="Dimension mismatch"):
        compose(p, rows[:, 1:])


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


def test_point_coords_roundtrip():
    p = Point(np.array([1.0, 2.0, 3.0, 4.0]), -0.25)
    c = p.coords()
    q = Point(c[:-1], c[-1])
    assert np.array_equal(q.x, p.x) and q.t == p.t


def test_equal_points_hash_alike():
    # -0.0 == 0.0, so the two points are equal and a set holds one of them
    p, q = Point(np.array([0.0, 1, 0, 0]), 1), Point(np.array([-0.0, 1, 0, 0]), 1)
    assert p == q and hash(p) == hash(q)
    assert len({p, q, Point(np.zeros(4), -0.0), Point(np.zeros(4), 0.0)}) == 2


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
