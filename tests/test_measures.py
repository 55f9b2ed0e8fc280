import dataclasses
import hashlib

import numpy as np
import pytest

from hgauge import measures
from hgauge.fd import FdConfig, fd_gradient
from hgauge.group import GroupParams, Point
from hgauge.measures import (
    FAMILIES,
    MeasureSpec,
    SamplerConfig,
    batch_means_se,
    check_lsi_conditions,
    check_slope_condition,
    condition_grid_start,
    eta_weight,
    g_prime,
    g_second,
    g_value,
    grad_log_density,
    log_density,
    run_chain,
    run_chains,
)

POWER4 = MeasureSpec(family="power", k=4.0)
COSH1 = MeasureSpec(family="cosh-power", k=1.0)
PLOG3 = MeasureSpec(family="power-log", k=3.0)
APOW = MeasureSpec(family="alpha-power", alpha=1.0, p=4.0, beta=0.25)

ALL_SPECS = [POWER4, COSH1, PLOG3, APOW]


# -- specs and profiles ---------------------------------------------------------


def test_family_list():
    assert FAMILIES == ("power", "cosh-power", "power-log", "alpha-power")


def test_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec(family="power", k=3.9)
    with pytest.raises(ValueError):
        MeasureSpec(family="cosh-power", k=0.5)
    with pytest.raises(ValueError):
        MeasureSpec(family="power-log", k=2.0)
    with pytest.raises(ValueError):
        MeasureSpec(family="alpha-power", alpha=1.0, p=3.5, beta=0.1)
    with pytest.raises(ValueError):
        # beta above (p-3)/p
        MeasureSpec(family="alpha-power", alpha=1.0, p=4.0, beta=0.3)
    with pytest.raises(ValueError):
        MeasureSpec(family="unknown", k=4.0)
    with pytest.raises(ValueError):
        MeasureSpec(family="power", k=4.0, q=1.5)


def test_g_values_frozen():
    r = np.array([2.0])
    assert g_value(POWER4, r)[0] == pytest.approx(16.0)
    assert g_value(COSH1, r)[0] == pytest.approx(np.cosh(2.0))
    assert g_value(PLOG3, r)[0] == pytest.approx(8.0 * np.log(3.0))
    # alpha-power: r^p * log(1 + r)^(-beta) style profile stays positive
    assert g_value(APOW, r)[0] > 0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_g_prime_matches_fd(spec):
    r = np.geomspace(0.3, 30.0, 40)
    h = 1e-6 * r
    fd = (g_value(spec, r + h) - g_value(spec, r - h)) / (2 * h)
    assert np.allclose(g_prime(spec, r), fd, rtol=1e-7)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_g_second_matches_fd(spec):
    r = np.geomspace(0.3, 30.0, 40)
    h = 1e-5 * r
    fd = (g_prime(spec, r + h) - g_prime(spec, r - h)) / (2 * h)
    assert np.allclose(g_second(spec, r), fd, rtol=1e-6)


def test_eta_weight_definition():
    r = np.geomspace(0.5, 20.0, 30)
    assert np.allclose(eta_weight(POWER4, r), g_prime(POWER4, r) / (r * r), rtol=1e-13)


# -- densities ------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_grad_log_density_matches_fd(spec):
    params = GroupParams(2)
    rng = np.random.default_rng(3)

    def field(coords):
        out = np.empty(coords.shape[0])
        for i, row in enumerate(coords):
            out[i] = log_density(spec, Point(row[:-1], row[-1]), params)
        return out

    for _ in range(10):
        x = rng.uniform(-2, 2, 4)
        if np.linalg.norm(x) < 0.5:
            continue
        t = rng.uniform(-3, 3)
        p = Point(x, t)
        exact = grad_log_density(spec, p, params)
        fd = fd_gradient(field, p.coords()[None, :], FdConfig())[0]
        assert np.allclose(exact, fd, rtol=1e-5, atol=1e-7)


def test_grad_log_density_rejects_central_line():
    params = GroupParams(2)
    with pytest.raises(ValueError):
        grad_log_density(POWER4, Point(np.zeros(4), 1.0), params)


# -- analytic conditions --------------------------------------------------------


def test_condition_grid_starts():
    assert condition_grid_start(POWER4) == pytest.approx(1.0)
    assert condition_grid_start(COSH1) == pytest.approx(1.5)
    assert condition_grid_start(PLOG3) == pytest.approx(1.05)
    assert condition_grid_start(APOW) == pytest.approx(1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_slope_condition_on_documented_grid(spec):
    grid = np.geomspace(condition_grid_start(spec), 1e4, 400)
    report = check_slope_condition(spec, grid)
    assert report.passed, report.min_margin


def test_slope_condition_fails_at_left_end_for_power_log():
    # at radius 1 the normalized slope margin is genuinely negative for k = 3;
    # the documented grid therefore starts at 1.05
    grid = np.array([1.0])
    report = check_slope_condition(PLOG3, grid)
    assert not report.passed
    assert report.min_margin == pytest.approx(-0.03838035619930524, abs=1e-12)


def test_slope_condition_crossing_point():
    # margin crosses zero near 1.01012 for k = 3
    lo = check_slope_condition(PLOG3, np.array([1.0101])).min_margin
    hi = check_slope_condition(PLOG3, np.array([1.0102])).min_margin
    assert lo < 0 < hi


def test_power_log_grid_start_covers_larger_k():
    for k in (3.0, 5.0, 10.0, 20.0):
        spec = MeasureSpec(family="power-log", k=k)
        grid = np.geomspace(1.05, 1e4, 300)
        assert check_slope_condition(spec, grid).passed


def test_lsi_conditions_feasible_point():
    grid = np.geomspace(1.0, 1e4, 400)
    report = check_lsi_conditions(APOW, grid, c=0.5, d=1.0)
    assert report.passed, report.min_margin


def test_lsi_conditions_boundary_c():
    # c = 1/4 is the exact boundary for beta = 1/4, p = 4
    grid = np.geomspace(1.0, 1e4, 400)
    bad = check_lsi_conditions(APOW, grid, c=0.2499, d=1.0)
    assert not bad.passed
    assert "beta-growth" in bad.name
    good = check_lsi_conditions(APOW, grid, c=0.2501, d=1.0)
    assert good.passed


# -- sampler --------------------------------------------------------------------

SHORT = SamplerConfig(n_steps=12_000, burn_in=2_000, step=0.3, seed=5, n_chains=2)
PARAMS2 = GroupParams(2)


def test_chain_determinism():
    b1 = run_chain(POWER4, PARAMS2, SHORT, 0)
    b2 = run_chain(POWER4, PARAMS2, SHORT, 0)
    assert np.array_equal(b1.coords, b2.coords)
    assert b1.acceptance_rate == b2.acceptance_rate


def test_chains_are_stream_independent():
    b0 = run_chain(POWER4, PARAMS2, SHORT, 0)
    b1 = run_chain(POWER4, PARAMS2, SHORT, 1)
    assert not np.array_equal(b0.coords, b1.coords)
    # both target the same distribution
    assert abs(np.mean(b0.norms()) - np.mean(b1.norms())) < 0.1


def test_chain_output_shapes():
    b = run_chain(POWER4, PARAMS2, SHORT, 0)
    assert b.coords.shape == (10_000, 5)
    assert b.log_densities.shape == (10_000,)
    assert 0.1 < b.acceptance_rate < 0.6
    assert b.chain_index == 0


def test_run_chains_returns_all():
    batches = run_chains(POWER4, PARAMS2, SHORT)
    assert len(batches) == 2
    assert batches[0].chain_index == 0
    assert batches[1].chain_index == 1


def test_acceptance_guard_fires():
    cfg = SamplerConfig(n_steps=3_000, burn_in=0, step=1e6, seed=1, n_chains=1)
    with pytest.raises(RuntimeError):
        run_chain(POWER4, PARAMS2, cfg, 0)


def test_mala_smoke():
    cfg = dataclasses.replace(SHORT, algorithm="mala", step=0.4)
    b = run_chain(POWER4, PARAMS2, cfg, 0)
    assert 0.05 < b.acceptance_rate < 0.98
    rwm = run_chain(POWER4, PARAMS2, SHORT, 0)
    se = batch_means_se(b.norms()) + batch_means_se(rwm.norms())
    assert abs(np.mean(b.norms()) - np.mean(rwm.norms())) < 6 * se


def test_log_densities_recorded_correctly():
    b = run_chain(POWER4, PARAMS2, SHORT, 0)
    idx = [0, 1234, 9999]
    params = PARAMS2
    for i in idx:
        p = Point(b.coords[i, :-1], b.coords[i, -1])
        assert b.log_densities[i] == pytest.approx(log_density(POWER4, p, params), rel=1e-12)


# sha256 prefixes of (coords, log-densities, acceptance, step_final) over both
# chains, recorded from a sampler that scored one proposal per gauge call: the
# block sampler must reproduce it bit for bit.  Burn-in 1037 is no multiple of
# TUNE_INTERVAL, so blocks meet both the tuning boundaries and the end of
# burn-in.
CHAIN_DIGESTS = {
    ("rwm", "power", 2): "2d8bd728698501a3581db05706431808",
    ("rwm", "power", 6): "27cb58b1e1aa22848ff57983ad55fb7a",
    ("rwm", "power-log", 2): "393a90220a6d29429fb4b15fb742e64a",
    ("rwm", "power-log", 6): "16d1a38a490ecf5efb93c31583c3b5ce",
    ("mala", "cosh-power", 2): "1701d95d647f91c54abe5c80e7e4e354",
    ("mala", "cosh-power", 6): "c769bd5edd8f3d4722af19e3d9bb8ca8",
    ("mala", "alpha-power", 2): "010251e58a3a194a2be31a540e09bc41",
    ("mala", "alpha-power", 6): "d144050a8ca0c788d7511ffba5de815f",
}
DIGEST_SPECS = {
    "power": POWER4,
    "power-log": PLOG3,
    "cosh-power": MeasureSpec(family="cosh-power", k=2.0),
    "alpha-power": APOW,
}


@pytest.mark.parametrize("algorithm, family, n", sorted(CHAIN_DIGESTS))
def test_chain_digests_are_pinned(algorithm, family, n, monkeypatch):
    calls = []
    run_one = measures.run_chain

    def counted(*args, **kwargs):
        calls.append(args[3])
        return run_one(*args, **kwargs)

    # run_chains must go through the module-level run_chain, once per chain
    monkeypatch.setattr(measures, "run_chain", counted)
    cfg = SamplerConfig(
        n_steps=3000,
        burn_in=1037,
        step=0.25 if algorithm == "rwm" else 0.1,
        seed=3,
        n_chains=2,
        algorithm=algorithm,
    )
    batches = measures.run_chains(DIGEST_SPECS[family], GroupParams(n), cfg)
    assert calls == [0, 1]
    h = hashlib.sha256()
    for b in batches:
        h.update(np.ascontiguousarray(b.coords).tobytes())
        h.update(b.log_densities.tobytes())
        h.update(np.float64(b.acceptance_rate).tobytes())
        h.update(np.float64(b.step_final).tobytes())
    assert h.hexdigest()[:32] == CHAIN_DIGESTS[algorithm, family, n]


def test_batch_means_se_iid():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(100_000)
    se = batch_means_se(vals)
    want = vals.std() / np.sqrt(vals.size)
    assert 0.5 * want < se < 2.0 * want


def test_batch_means_se_needs_enough_data():
    with pytest.raises(ValueError):
        batch_means_se(np.arange(10.0))
