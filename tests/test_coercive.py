import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from reference import horizontal

from hgauge import coercive, measures, norm
from hgauge.coercive import (
    _fit_constants,
    beta_lsi_functional,
    default_family,
    fit_beta_lsi,
    fit_ubound_constants,
    poincare_ratio,
    ubound_terms,
)
from hgauge.group import Point, compose, inverse
from hgauge.measures import MeasureSpec, SampleBatch, SamplerConfig, run_chain
from hgauge.norm import norm_batch, partials_batch

CHAIN_N = 2
POWER4 = MeasureSpec(family="power", k=4.0)
APOW = MeasureSpec(family="alpha-power", alpha=1.0, p=4.0)
CFG = SamplerConfig(n_steps=30_000, burn_in=5_000, step=0.3, seed=21)
FAMILY = default_family(CHAIN_N)
(CONSTANT, COORDINATE, _, _, POWER_CUTOFF, _, BUMP, OFFSET_BUMP) = FAMILY


@pytest.fixture(scope="module")
def batch():
    return run_chain(POWER4, CHAIN_N, CFG, 0)


def _rows(coords):
    """A SampleBatch of POWER4 holding arbitrary coordinate rows."""
    norms = norm_batch(coords[:, :-1], coords[:, -1])
    return SampleBatch(POWER4, coords, 1.0, 0, 1.0, norms)


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
            pm = [compose(p, Point(s, 0.0)).coords() for s in (step, -step)]
            fp, fm = f.evaluate(_rows(np.array(pm)))[0]
            out[i, j] = (fp - fm) / (2 * h)
    return out


@pytest.mark.parametrize("f", FAMILY, ids=lambda f: f.name)
def test_horizontal_gradient_matches_group_fd(f):
    rng = np.random.default_rng(1)
    coords = rng.uniform(-2.5, 2.5, (25, 5))
    keep = np.linalg.norm(coords[:, :-1], axis=1) > 0.3
    coords = coords[keep]
    _, grad = f.evaluate(_rows(coords))
    fd = np.linalg.norm(_fd_horizontal_grad(f, coords), axis=1)
    assert np.max(np.abs(grad - fd)) < 5e-6


@pytest.mark.parametrize("f", FAMILY, ids=lambda f: f.name)
def test_grad_norm_consistent(f):
    # |h'(u)| sqrt(grad_sq) equals the norm of the vector h'(u) X u, with
    # X u = e_1 for u = x_1 and X N from partials_batch for the gauge
    rng = np.random.default_rng(2)
    coords = rng.uniform(-2.5, 2.5, (40, 5))
    _, grad = f.evaluate(_rows(coords))
    if f.radial:
        y = coords
        if f.center is not None:
            y = np.array([compose(inverse(f.center), Point(r[:-1], r[-1])).coords() for r in coords])
        pb = partials_batch(y[:, :-1], y[:, -1])
        _, dh = f.profile(pb.N)
        want = np.linalg.norm(dh[:, None] * horizontal(pb), axis=1)
    else:
        want = np.abs(f.profile(coords[:, 0])[1])
    assert np.allclose(grad, want, rtol=1e-12, atol=0.0)


def test_default_family_composition():
    assert [f.name for f in FAMILY] == [
        "constant",
        "coordinate-x1",
        "sin(1*x1)",
        "exp(-N)",
        "N^1*cutoff",
        "log(1+N)",
        "bump(origin, r=1.5)",
        "bump(offset, r=2.5)",
    ]
    assert [f.radial for f in FAMILY] == [False] * 3 + [True] * 5
    assert [f.center for f in FAMILY[:7]] == [None] * 7
    assert OFFSET_BUMP.center == Point(np.array([3.0, 0.0, 0.0, 0.0]), 0.0)


def test_radial_power_cutoff_plateau_and_support():
    rng = np.random.default_rng(3)
    coords = rng.uniform(-4, 4, (300, 5))
    nn = norm_batch(coords[:, :-1], coords[:, -1])
    vals, grad = POWER_CUTOFF.evaluate(_rows(coords))
    inner = nn <= 2.0
    outer = nn >= 4.0
    assert np.allclose(vals[inner], nn[inner], rtol=1e-12)
    assert np.all(vals[outer] == 0.0)
    assert np.all(grad[outer] == 0.0)


def test_bump_support():
    rng = np.random.default_rng(4)
    coords = rng.uniform(-3, 3, (200, 5))
    nn = norm_batch(coords[:, :-1], coords[:, -1])
    vals, grad = BUMP.evaluate(_rows(coords))
    assert np.all(vals[nn >= 1.5] == 0.0)
    assert np.all(grad[nn >= 1.5] == 0.0)
    assert np.all(vals[nn < 1.4] > 0.0)
    assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_bump_gradient_survives_near_its_edge():
    # just inside N = 1.5, h'(N) is tiny but nonzero; the squares of its
    # horizontal components underflow, |h'| |grad N| does not
    rng = np.random.default_rng(6)
    coords = rng.uniform(-2, 2, (4000, 5))
    nn = norm_batch(coords[:, :-1], coords[:, -1])
    lam = rng.uniform(1.4985, 1.5, len(coords)) / nn
    coords[:, :-1] *= lam[:, None]
    coords[:, -1] *= lam * lam
    nn = norm_batch(coords[:, :-1], coords[:, -1])
    _, dh = BUMP.profile(nn)
    edge = (1.4985 < nn) & (nn < 1.5) & (dh != 0.0)
    assert edge.sum() > 100
    _, grad = BUMP.evaluate(_rows(coords))
    assert np.all(grad[edge] > 0.0)


def test_offset_bump_is_left_translate():
    origin_bump = dataclasses.replace(OFFSET_BUMP, center=None)
    rng = np.random.default_rng(5)
    coords = rng.uniform(-2, 2, (50, 5))
    # value at p equals the origin bump at center^{-1} p
    cinv = inverse(OFFSET_BUMP.center)
    shifted = np.array([compose(cinv, Point(row[:-1], row[-1])).coords() for row in coords])
    want = origin_bump.evaluate(_rows(shifted))[0]
    assert np.allclose(OFFSET_BUMP.evaluate(_rows(coords))[0], want, atol=1e-12)


def test_offset_bump_is_row_independent():
    # a centre with twelve nonzero twist coefficients: each row's value and
    # gradient have the same bytes alone as in its chain
    x = np.array([0.9, 0.4, -0.6, 0.5, 0.1, 0.7, 0.5, -0.3, 0.2, 0.3, 0.8, 0.4])
    bump = coercive.TestFunction("bump(r=4)", coercive._bump(4.0), center=Point(x, 0.5))
    chain = run_chain(POWER4, 6, SamplerConfig(n_steps=3000, burn_in=500, seed=6), 0)
    assert chain.coords.shape == (2500, 13)
    vals, grad = bump.evaluate(chain)
    assert np.count_nonzero(vals) > 2000
    for i, row in enumerate(chain.coords):
        one_val, one_grad = bump.evaluate(_rows(row[None, :]))
        assert one_val.tobytes() == vals[i : i + 1].tobytes(), i
        assert one_grad.tobytes() == grad[i : i + 1].tobytes(), i


def test_family_shares_one_gauge_pass(batch, monkeypatch):
    # every origin-centred function reads the sampler's N and the batch's
    # cached |grad N|; only the offset bump makes a gauge pass of its own
    calls = {"norm_batch": 0, "partials_batch": 0}
    for name in calls:
        target = getattr(norm, name)

        def counted(*args, _target=target, _name=name):
            calls[_name] += 1
            return _target(*args)

        for module in (norm, measures, coercive):
            if getattr(module, name, None) is target:
                monkeypatch.setattr(module, name, counted)
    fresh = dataclasses.replace(batch)  # empty cache
    fit_ubound_constants(FAMILY, fresh, 2.0)
    assert calls["norm_batch"] == 0 and calls["partials_batch"] <= 2, calls


def test_constant_has_zero_gradient(batch):
    assert np.all(CONSTANT.evaluate(batch)[1] == 0.0)
    with pytest.raises(RuntimeError):
        poincare_ratio(CONSTANT, batch, 2.0)


def test_degenerate_means_name_both_causes(batch):
    # E|f|^q = 0 stops all three functionals; E|grad f|^q = 0 stops the
    # Poincare ratio.  Either mean is 0 also when its q-th power underflows.
    far = _rows(np.array([[9.0, 0.0, 0.0, 0.0, 0.0]] * 100))
    for call in (
        lambda: ubound_terms(BUMP, far, 2.0, restrict_exterior=False),
        lambda: poincare_ratio(BUMP, far, 2.0),
        lambda: beta_lsi_functional(BUMP, far, 2.0, beta=0.25),
    ):
        with pytest.raises(RuntimeError, match=r"1.5\)': f vanishes on the sample, or \|f\|\^q underflows"):
            call()
    # |grad f|^2 = 1e-400 underflows on every row, while f is not constant
    flat = coercive.TestFunction("flat", lambda u: (1.0 + 1e-200 * u, np.full_like(u, 1e-200)), radial=False)
    with pytest.raises(RuntimeError, match=r"'flat': f is constant on the sample, or \|grad f\|\^q underflows"):
        poincare_ratio(flat, batch, 2.0)


def test_overflowing_means_name_the_function():
    # at q = 1000, |x_1|^q passes the float range on this chain (max |x_1| is
    # about 2); the fits refuse it where they once reported C = nan as feasible
    b = run_chain(POWER4, CHAIN_N, SamplerConfig(n_steps=2000, burn_in=500, seed=1), 0)
    fam = default_family(CHAIN_N)
    for call in (
        lambda: fit_ubound_constants(fam, b, 1000.0),
        lambda: fit_beta_lsi(fam, b, 1000.0, beta=0.25),
        lambda: poincare_ratio(COORDINATE, b, 1000.0),
    ):
        with pytest.raises(RuntimeError, match=r"E\|f\|\^q overflows for 'coordinate-x1'"):
            call()
    # E|grad f|^q alone, and |f - Ef|^q, which reaches (2 max|f|)^q, alone
    steep = coercive.TestFunction("steep", lambda u: (np.ones_like(u), np.full_like(u, 1e200)), radial=False)
    with pytest.raises(RuntimeError, match=r"E\|grad f\|\^q overflows for 'steep'"):
        ubound_terms(steep, b, 2.0, restrict_exterior=False)
    # f = 1.5 but -1.5 on one row: 1.5^1000 stays in range, 3^1000 does not
    spread = coercive.TestFunction(
        "spread", lambda u: (np.where(u > u.min(), 1.5, -1.5), np.ones_like(u)), radial=False
    )
    with pytest.raises(RuntimeError, match=r"E\|f - Ef\|\^q overflows for 'spread'"):
        poincare_ratio(spread, b, 1000.0)


def test_standard_errors_stay_finite_where_the_means_do():
    # at q = 1000, E eta |f|^q of N^1*cutoff is finite (1.2e190) on this chain,
    # but its batch means' squared deviations pass the float range, and those
    # of E|grad f|^q (1e-191) fall below it
    b = run_chain(POWER4, CHAIN_N, SamplerConfig(n_steps=2000, burn_in=500, seed=1), 0)
    assert POWER_CUTOFF.name == "N^1*cutoff"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = ubound_terms(POWER_CUTOFF, b, 1000.0, restrict_exterior=False)
    assert 1e189 < terms.lhs < 1e191 and 1e-192 < terms.grad_term < 1e-190
    for mean, se in ((terms.lhs, terms.lhs_se), (terms.grad_term, terms.grad_se), (terms.mass_term, terms.mass_se)):
        assert 0.0 < se <= mean  # one row carries nearly all of each mean


def test_exterior_fit_needs_an_exterior_sample():
    # every row of this chain has N < 1, so each exterior left side would be 0
    b = run_chain(MeasureSpec(family="power", k=400.0), CHAIN_N, SamplerConfig(n_steps=2000, burn_in=500, seed=1), 0)
    assert np.all(b.gauge < 1.0)
    with pytest.raises(RuntimeError, match="No sample has N >= 1"):
        fit_ubound_constants(FAMILY, b, 2.0, restrict_exterior=True)
    _, res = fit_ubound_constants(FAMILY, b, 2.0)  # the whole-space fit has support
    assert res.feasible


def test_ubound_terms_nonnegative(batch):
    for f in default_family(CHAIN_N):
        terms = ubound_terms(f, batch, 2.0, restrict_exterior=False)
        assert terms.lhs >= 0.0
        assert terms.grad_term >= 0.0
        assert terms.mass_term > 0.0


def test_fit_ubound_feasible(batch):
    fam = default_family(CHAIN_N)
    terms, res = fit_ubound_constants(fam, batch, 2.0)
    assert terms == [ubound_terms(f, batch, 2.0, restrict_exterior=False) for f in fam]
    assert res.feasible
    assert res.feasible == (res.max_violation == 0.0)
    assert res.c >= 0.0 and res.d > 0.0
    assert len(res.per_function_margins) == len(fam)
    assert all(m >= -1e-12 for m in res.per_function_margins)


def test_fit_ubound_exterior_restriction(batch):
    fam = default_family(CHAIN_N)
    _, res = fit_ubound_constants(fam, batch, 2.0, restrict_exterior=True)
    assert res.feasible
    assert res.feasible == (res.max_violation == 0.0)


def test_fit_is_deterministic(batch):
    fam = default_family(CHAIN_N)
    _, r1 = fit_ubound_constants(fam, batch, 2.0)
    _, r2 = fit_ubound_constants(fam, batch, 2.0)
    assert r1.c == r2.c and r1.d == r2.d


def test_poincare_ratio_coordinate_equals_variance(batch):
    # |grad x_1| = 1, so the q = 2 ratio is exactly the sample variance
    ratio, se = poincare_ratio(COORDINATE, batch, 2.0)
    var = float(np.var(batch.coords[:, 0]))
    assert ratio == pytest.approx(var, rel=1e-12)
    assert se > 0.0


def test_poincare_ratios_finite_across_family(batch):
    for f in default_family(CHAIN_N)[1:]:
        ratio, se = poincare_ratio(f, batch, 2.0)
        assert np.isfinite(ratio) and ratio > 0


def test_poincare_two_seed_stability():
    fam = default_family(CHAIN_N)[1:]
    ratios = []
    for seed in (31, 32):
        cfg = dataclasses.replace(CFG, seed=seed)
        b = run_chain(POWER4, CHAIN_N, cfg, 0)
        ratios.append(max(poincare_ratio(f, b, 2.0)[0] for f in fam))
    assert abs(ratios[0] - ratios[1]) / np.mean(ratios) < 0.4


def test_beta_lsi_functional_handles_zero_values(batch):
    # the origin bump vanishes on most samples
    lhs, grad, mass = beta_lsi_functional(BUMP, batch, 2.0, beta=0.25)
    assert np.isfinite(lhs) and lhs >= 0.0
    assert np.isfinite(grad) and grad >= 0.0
    assert mass > 0.0


def test_fit_beta_lsi_feasible():
    b = run_chain(APOW, CHAIN_N, CFG, 0)
    res = fit_beta_lsi(default_family(CHAIN_N), b, 2.0, beta=0.25)
    assert res.feasible
    assert res.feasible == (res.max_violation == 0.0)


@pytest.mark.parametrize(
    "spec, beta",
    [(POWER4, 0.0), (POWER4, -1.0), (POWER4, math.nan), (POWER4, math.inf), (APOW, 0.0),
     (APOW, 0.2501), (POWER4, 0.2501)],
)
def test_fit_beta_lsi_rejects_bad_beta(batch, spec, beta):
    # beta > 0 for every family, and beta <= (p-3)/p = 1/4 for alpha-power at
    # p = 4 and for power at k = 4, the same measure
    with pytest.raises(ValueError, match="beta"):
        fit_beta_lsi(default_family(CHAIN_N), dataclasses.replace(batch, spec=spec), 2.0, beta=beta)


@pytest.mark.parametrize("q", [1.5, math.nan, math.inf])
def test_functionals_reject_bad_q(batch, q):
    # q is the inequalities' exponent, not the measure's: finite and >= 2
    for call in (
        lambda: ubound_terms(COORDINATE, batch, q, restrict_exterior=False),
        lambda: poincare_ratio(COORDINATE, batch, q),
        lambda: beta_lsi_functional(COORDINATE, batch, q, beta=0.25),
    ):
        with pytest.raises(ValueError, match="q >= 2"):
            call()


def test_feasibility_result_as_dict(batch):
    _, res = fit_ubound_constants(default_family(CHAIN_N), batch, 2.0)
    d = res.as_dict()
    assert set(d) == {"C", "D", "max_violation", "per_function", "d_grid", "feasible"}
    assert len(d["per_function"]) == 8


# Synthetic (name, lhs, grad, mass) rows for the closed-form fit, anchor 1.3
# (D in [1.3, 13]).
FIT_CASES = {
    "c-positive": [("constant", 1.0, 0.0, 1.0), ("steep", 3.7, 0.3, 0.2), ("mild", 0.9, 0.5, 0.4)],
    "zero-grad": [("constant", 2.9, 0.0, 1.1), ("mild", 0.9, 0.5, 0.4)],
    "zero-mass": [("constant", 1.0, 0.0, 1.0), ("no-mass", 0.7, 0.2, 0.0), ("wide", 3.3, 0.1, 0.6)],
    "infeasible": [("constant", 14.5, 0.0, 1.1), ("mild", 0.9, 0.5, 0.4)],
}


def _brute_fit(rows, anchor, size=200_001):
    """(least C, least D reaching it) on a dense linear grid of D; (inf, None) if none."""
    _, lhs, grad, mass = (np.array(v) for v in zip(*rows))
    ds = np.linspace(anchor, 10.0 * anchor, size)
    slack = lhs - ds[:, None] * mass
    ok = np.all(slack[:, grad == 0.0] <= 0.0, axis=1)
    live = grad > 0.0
    c = np.max(np.clip(slack[:, live] / grad[live], 0.0, None), axis=1, initial=0.0)
    if not ok.any():
        return math.inf, None
    c_min = float(c[ok].min())
    return c_min, float(ds[ok & (c <= c_min + 1e-9 * (1.0 + c_min))][0])


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fit_constants_closed_form(case):
    rows, anchor = FIT_CASES[case], 1.3
    with np.errstate(invalid="raise"):
        res = _fit_constants(rows, anchor)
    json.dumps(res.as_dict(), allow_nan=False)
    c_brute, d_brute = _brute_fit(rows, anchor)
    _, lhs, grad, mass = (np.array(v) for v in zip(*rows))
    assert res.d_grid == (anchor, 10.0 * anchor)
    assert res.per_function_margins == tuple(res.c * grad + res.d * mass - lhs)
    if d_brute is None:
        # reported at (C(10*anchor), 10*anchor): "mild" holds with C = 0, and
        # the constant row falls short by 14.5 - 13*1.1
        assert not res.feasible and res.c == 0.0 and res.d == 10.0 * anchor
        assert res.per_function_margins[0] < 0.0 <= res.per_function_margins[1]
        assert res.max_violation == -res.per_function_margins[0] == pytest.approx(0.2)
        return
    assert res.feasible and res.max_violation == 0.0
    assert (res.c > 0.0) == (c_brute > 0.0) == (case != "zero-grad")
    assert res.c == pytest.approx(c_brute, rel=1e-9, abs=1e-12)
    assert abs(res.d - d_brute) <= 9.0 * anchor / 200_000
    assert np.all(res.c * grad + res.d * mass - lhs >= 0.0)
    if res.d > anchor:
        below = np.nextafter(res.d, -math.inf)
        assert np.any(res.c * grad + below * mass - lhs < 0.0)


def test_fit_constants_random_rows():
    # a fit is feasible iff its zero-gradient rows hold at D = 10*anchor, a
    # feasible fit holds as reported, and a fit with C = 0 (every fit seen on
    # real chains) ends at the least float D that holds; an infeasible fit is
    # reported at D = 10*anchor, short only on zero-gradient rows
    rng = np.random.default_rng(7)
    counts = {"c0": 0, "c+": 0, "infeasible": 0}
    for _ in range(2000):
        k = int(rng.integers(1, 9))
        lhs, grad, mass = rng.uniform(0.0, 1.0, (3, k)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 1))
        grad[rng.uniform(size=k) < 0.2] = 0.0
        mass[rng.uniform(size=k) < 0.1] = 0.0
        anchor = float(10.0 ** rng.uniform(-2.0, 2.0))
        with np.errstate(invalid="raise"):
            res = _fit_constants(list(zip("abcdefgh", lhs, grad, mass)), anchor)
        json.dumps(res.as_dict(), allow_nan=False)
        zero = grad == 0.0
        assert res.feasible == np.all(10.0 * anchor * mass[zero] - lhs[zero] >= 0.0)
        margins = np.array(res.per_function_margins)
        assert res.max_violation == max(0.0, -margins.min())
        assert res.feasible == (res.max_violation == 0.0)
        if not res.feasible:
            assert res.d == 10.0 * anchor
            assert np.all(margins[~zero] >= 0.0) and np.any(margins[zero] < 0.0)
            counts["infeasible"] += 1
            continue
        assert np.all(res.c * grad + res.d * mass - lhs >= 0.0)
        counts["c+" if res.c > 0.0 else "c0"] += 1
        if res.c == 0.0 and res.d > anchor:
            below = np.nextafter(res.d, -math.inf)
            assert np.any(below * mass - lhs < 0.0)
    assert min(counts.values()) > 300, counts
