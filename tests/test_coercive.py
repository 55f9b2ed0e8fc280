import dataclasses

import numpy as np
import pytest

from hgauge.coercive import (
    Constant,
    Coordinate,
    ExpDecay,
    Oscillatory,
    RadialLog,
    RadialPower,
    SmoothBump,
    beta_lsi_functional,
    default_family,
    fit_beta_lsi,
    fit_ubound_constants,
    poincare_ratio,
    ubound_terms,
)
from hgauge.group import GroupParams, Point, compose
from hgauge.measures import MeasureSpec, SamplerConfig, run_chain
from hgauge.norm import norm_batch

PARAMS = GroupParams(2)
POWER4 = MeasureSpec(family="power", k=4.0)
CFG = SamplerConfig(n_steps=30_000, burn_in=5_000, step=0.3, seed=21, n_chains=1)


@pytest.fixture(scope="module")
def batch():
    return run_chain(POWER4, PARAMS, CFG, 0)


def _fd_horizontal_grad(f, coords, h=1e-6):
    """X_j f via composition with small steps along the j-th generator."""
    m, dim = coords.shape
    d = dim - 1
    out = np.zeros((m, d))
    for i in range(m):
        p = Point(coords[i, :-1], coords[i, -1])
        for j in range(d):
            step = np.zeros(d)
            step[j] = h
            fp = f.value(compose(p, Point(step, 0.0)).coords()[None, :])[0]
            fm = f.value(compose(p, Point(-step, 0.0)).coords()[None, :])[0]
            out[i, j] = (fp - fm) / (2 * h)
    return out


ALL_FUNCTIONS = [
    Constant(),
    Coordinate(1),
    Oscillatory(1, 1.0),
    ExpDecay(PARAMS),
    RadialPower(PARAMS, 1),
    RadialLog(PARAMS),
    SmoothBump(PARAMS, None, 1.5),
    SmoothBump(PARAMS, Point(np.array([3.0, 0.0, 0.0, 0.0]), 0.0), 2.5),
]


@pytest.mark.parametrize("f", ALL_FUNCTIONS, ids=lambda f: f.name)
def test_horizontal_gradient_matches_group_fd(f):
    rng = np.random.default_rng(1)
    coords = rng.uniform(-2.5, 2.5, (25, 5))
    keep = np.linalg.norm(coords[:, :-1], axis=1) > 0.3
    coords = coords[keep]
    exact = f.horizontal_grad(coords)
    fd = _fd_horizontal_grad(f, coords)
    assert np.max(np.abs(exact - fd)) < 5e-6


@pytest.mark.parametrize("f", ALL_FUNCTIONS, ids=lambda f: f.name)
def test_grad_norm_consistent(f):
    rng = np.random.default_rng(2)
    coords = rng.uniform(-2.5, 2.5, (40, 5))
    g = f.horizontal_grad(coords)
    assert np.allclose(f.grad_norm(coords), np.linalg.norm(g, axis=1), rtol=1e-12)


def test_default_family_composition():
    fam = default_family(PARAMS)
    assert len(fam) == 8
    assert isinstance(fam[0], Constant)
    names = [f.name for f in fam]
    assert len(set(names)) == 8


def test_radial_power_cutoff_plateau_and_support():
    f = RadialPower(PARAMS, 1)
    rng = np.random.default_rng(3)
    coords = rng.uniform(-4, 4, (300, 5))
    nn = norm_batch(coords[:, :-1], coords[:, -1])
    vals = f.value(coords)
    inner = nn <= 2.0
    outer = nn >= 4.0
    assert np.allclose(vals[inner], nn[inner], rtol=1e-12)
    assert np.all(vals[outer] == 0.0)
    assert np.all(f.grad_norm(coords)[outer] == 0.0)


def test_bump_support():
    f = SmoothBump(PARAMS, None, 1.5)
    rng = np.random.default_rng(4)
    coords = rng.uniform(-3, 3, (200, 5))
    nn = norm_batch(coords[:, :-1], coords[:, -1])
    vals = f.value(coords)
    assert np.all(vals[nn >= 1.5] == 0.0)
    assert np.all(vals[nn < 1.4] > 0.0)
    assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_offset_bump_is_left_translate():
    center = Point(np.array([3.0, 0.0, 0.0, 0.0]), 0.0)
    f = SmoothBump(PARAMS, center, 2.5)
    origin_bump = SmoothBump(PARAMS, None, 2.5)
    rng = np.random.default_rng(5)
    coords = rng.uniform(-2, 2, (50, 5))
    # value at p equals the origin bump at center^{-1} p
    from hgauge.group import inverse

    shifted = []
    for row in coords:
        p = Point(row[:-1], row[-1])
        shifted.append(compose(inverse(center), p).coords())
    shifted = np.asarray(shifted)
    assert np.allclose(f.value(coords), origin_bump.value(shifted), atol=1e-12)


def test_constant_has_zero_gradient(batch):
    f = Constant()
    assert np.all(f.horizontal_grad(batch.coords) == 0.0)
    with pytest.raises(ValueError):
        poincare_ratio(f, POWER4, batch)


def test_ubound_terms_nonnegative(batch):
    for f in default_family(PARAMS):
        terms = ubound_terms(f, POWER4, batch)
        assert terms.lhs >= 0.0
        assert terms.grad_term >= 0.0
        assert terms.mass_term > 0.0


def test_fit_ubound_feasible(batch):
    fam = default_family(PARAMS)
    terms, res = fit_ubound_constants(fam, POWER4, batch)
    assert terms == [ubound_terms(f, POWER4, batch) for f in fam]
    assert res.feasible
    assert res.max_violation <= 0.0
    assert res.c >= 0.0 and res.d > 0.0
    assert len(res.per_function_margins) == len(fam)
    assert all(m >= -1e-12 for m in res.per_function_margins)


def test_fit_ubound_exterior_restriction(batch):
    fam = default_family(PARAMS)
    _, res = fit_ubound_constants(fam, POWER4, batch, restrict_exterior=True)
    assert res.feasible
    assert res.max_violation <= 0.0


def test_fit_is_deterministic(batch):
    fam = default_family(PARAMS)
    _, r1 = fit_ubound_constants(fam, POWER4, batch)
    _, r2 = fit_ubound_constants(fam, POWER4, batch)
    assert r1.c == r2.c and r1.d == r2.d


def test_poincare_ratio_coordinate_equals_variance(batch):
    # |grad x_1| = 1, so the q = 2 ratio is exactly the sample variance
    f = Coordinate(1)
    ratio, se = poincare_ratio(f, POWER4, batch)
    var = float(np.var(batch.coords[:, 0]))
    assert ratio == pytest.approx(var, rel=1e-12)
    assert se > 0.0


def test_poincare_ratios_finite_across_family(batch):
    for f in default_family(PARAMS)[1:]:
        ratio, se = poincare_ratio(f, POWER4, batch)
        assert np.isfinite(ratio) and ratio > 0


def test_poincare_two_seed_stability():
    fam = default_family(PARAMS)[1:]
    ratios = []
    for seed in (31, 32):
        cfg = dataclasses.replace(CFG, seed=seed)
        b = run_chain(POWER4, PARAMS, cfg, 0)
        ratios.append(max(poincare_ratio(f, POWER4, b)[0] for f in fam))
    assert abs(ratios[0] - ratios[1]) / np.mean(ratios) < 0.4


def test_beta_lsi_functional_handles_zero_values(batch):
    spec = MeasureSpec(family="alpha-power", alpha=1.0, p=4.0, beta=0.25)
    bump = SmoothBump(PARAMS, None, 1.5)  # vanishes on most samples
    lhs, grad, mass = beta_lsi_functional(bump, spec, batch)
    assert np.isfinite(lhs) and lhs >= 0.0
    assert np.isfinite(grad) and grad >= 0.0
    assert mass > 0.0


def test_fit_beta_lsi_feasible():
    spec = MeasureSpec(family="alpha-power", alpha=1.0, p=4.0, beta=0.25)
    b = run_chain(spec, PARAMS, CFG, 0)
    res = fit_beta_lsi(default_family(PARAMS), spec, b)
    assert res.feasible
    assert res.max_violation <= 0.0


def test_feasibility_result_as_dict(batch):
    _, res = fit_ubound_constants(default_family(PARAMS), POWER4, batch)
    d = res.as_dict()
    assert set(d) == {"C", "D", "max_violation", "per_function", "d_grid", "feasible"}
    assert len(d["per_function"]) == 8
