import dataclasses
import math

import numpy as np
import pytest

import pins
from conftest import FD_STEP
from reference import fd_gradient

from hgauge import measures
from hgauge.group import GroupParams
from hgauge.measures import (
    FAMILIES,
    TARGET_ACCEPT,
    TUNE_INTERVAL,
    MeasureSpec,
    SamplerConfig,
    batch_means_se,
    eta_weight,
    g_prime,
    g_value,
    run_chain,
    run_chains,
)
from hgauge.measures import _log_pi_grad_rows, _log_pi_rows

POWER4 = MeasureSpec(family="power", k=4.0)
COSH1 = MeasureSpec(family="cosh-power", k=1.0)
PLOG3 = MeasureSpec(family="power-log", k=3.0)
APOW = MeasureSpec(family="alpha-power", alpha=1.0, p=4.0)

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
        MeasureSpec(family="alpha-power", alpha=1.0, p=3.5)
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


def test_eta_weight_definition():
    r = np.geomspace(0.5, 20.0, 30)
    assert np.allclose(eta_weight(POWER4, r), g_prime(POWER4, r) / (r * r), rtol=1e-13)


# -- densities ------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_grad_log_density_matches_fd(spec):
    # the sampler's gradient rows against differences of its log-density
    # rows, the central line x = 0 included: it is smooth away from the identity
    rng = np.random.default_rng(3)
    coords = np.column_stack([rng.uniform(-2, 2, (10, 4)), rng.uniform(-3, 3, 10)])
    coords = coords[np.linalg.norm(coords[:, :-1], axis=1) >= 0.5]
    central = np.zeros((4, 5))
    central[:, -1] = [-2.0, -0.5, 0.5, 1.0]
    coords = np.vstack([coords, central])
    exact = _log_pi_grad_rows(spec, coords)[2]
    fd = fd_gradient(lambda rows: _log_pi_rows(spec, rows)[1], coords, FD_STEP)
    assert np.all(np.isfinite(exact))
    assert np.allclose(exact, fd, rtol=1e-5, atol=1e-7)
    assert np.allclose(exact[-4:], fd[-4:], rtol=1e-7, atol=1e-9)


def test_grad_log_density_rejects_only_identity():
    # the central line is smooth away from the identity: finite and FD-exact;
    # the identity row, where the gauge has no gradient, is NaN
    coords = np.zeros((4, 5))
    coords[:3, -1] = [-1.0, 0.25, 1.0]
    exact = _log_pi_grad_rows(POWER4, coords)[2]
    fd = fd_gradient(lambda rows: _log_pi_rows(POWER4, rows)[1], coords[:3], FD_STEP)
    assert np.all(np.isfinite(exact[:3]))
    assert np.allclose(exact[:3], fd, rtol=1e-7, atol=1e-9)
    assert np.all(np.isnan(exact[3]))


# -- the beta-LSI exponent -------------------------------------------------------


@pytest.mark.parametrize(
    "spec, beta",
    [(APOW, 0.3), (APOW, 0.0), (APOW, -0.1), (POWER4, 0.0), (POWER4, -1.0), (POWER4, math.nan),
     (POWER4, math.inf), (POWER4, None)],
)
def test_lsi_conditions_reject_bad_beta(spec, beta):
    # beta is the beta-LSI's exponent, checked once: finite and > 0, and for
    # alpha-power (and power, its alpha = 1 case) at most (p-3)/p: 0.3 > 1/4 at p = 4
    with pytest.raises(ValueError, match="beta"):
        measures._check_beta(spec, beta)


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
    want = _log_pi_rows(POWER4, b.coords[idx])[1]
    assert np.allclose(b.log_densities[idx], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("algorithm, family, n", sorted(pins.CHAIN_DIGESTS))
def test_chain_digests_are_pinned(algorithm, family, n, monkeypatch):
    calls = []
    run_one = measures.run_chain

    def counted(*args, **kwargs):
        calls.append(args[3])
        return run_one(*args, **kwargs)

    # run_chains must go through the module-level run_chain, once per chain
    monkeypatch.setattr(measures, "run_chain", counted)
    parts = pins.chain_parts((algorithm, family, n))
    assert calls == [0, 1]
    assert pins.digest(parts) == pins.CHAIN_DIGESTS[algorithm, family, n]


def _one_step_chain(spec, params, cfg, chain_index):
    """The reference sampler: a plain loop scoring one proposal per gauge call.

    Returns (coords, log-densities, acceptance, step_final) as run_chain's
    batch does, and raises as run_chain does on a mis-tuned step.
    """
    stream = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains)[chain_index]
    rng = np.random.default_rng(stream)
    dim = params.ambient_dim
    state = rng.standard_normal(dim)[None, :]
    normals = rng.standard_normal((cfg.n_steps, dim))
    log_us = np.log(rng.random(cfg.n_steps))
    mala = cfg.algorithm == "mala"
    step = cfg.step
    if mala:
        norm, logpi, grad = _log_pi_grad_rows(spec, state)
    else:
        norm, logpi = _log_pi_rows(spec, state)
    coords, norms = [], []
    accepted_window = accepted_main = 0
    for i in range(cfg.n_steps):
        if mala:
            drift = state + 0.5 * step * step * grad
            prop = drift + step * normals[i : i + 1]
            prop_norm, prop_logpi, prop_grad = _log_pi_grad_rows(spec, prop)
            back = prop + 0.5 * step * step * prop_grad
            fwd_q = -np.sum((prop - drift) ** 2, axis=1) / (2.0 * step * step)
            back_q = -np.sum((state - back) ** 2, axis=1) / (2.0 * step * step)
            log_ratio = prop_logpi - logpi + back_q - fwd_q
        else:
            prop = state + step * normals[i : i + 1]
            prop_norm, prop_logpi = _log_pi_rows(spec, prop)
            log_ratio = prop_logpi - logpi
        if log_us[i] < log_ratio[0]:
            state, norm, logpi = prop, prop_norm, prop_logpi
            if mala:
                grad = prop_grad
            if i >= cfg.burn_in:
                accepted_main += 1
            else:
                accepted_window += 1
        if i >= cfg.burn_in:
            coords.append(state[0])
            norms.append(norm[0])
        elif (i + 1) % TUNE_INTERVAL == 0:
            step *= math.exp(0.5 * (accepted_window / TUNE_INTERVAL - TARGET_ACCEPT))
            accepted_window = 0
    rate = accepted_main / (cfg.n_steps - cfg.burn_in)
    if not 0.02 <= rate <= 0.98:
        raise RuntimeError(f"Acceptance rate {rate:.3f} outside [0.02, 0.98]; step mis-tuned.")
    return np.array(coords), -g_value(spec, np.array(norms)), rate, step


# (n_steps, burn_in, step by algorithm or (algorithm, n)); burn-in 437 leaves
# 5 kept steps after a partial tuning window; the tiny and large steps run
# untuned, at acceptance 0.92-0.98 and 0.02-0.04 for the random walk
REFERENCE_CONFIGS = {
    "no-burn-in": (1000, 0, {"rwm": 0.5, "mala": 0.4}),
    "burn-in-multiple": (1000, 2 * TUNE_INTERVAL, {"rwm": 0.5, "mala": 0.4}),
    "five-kept": (442, 437, {"rwm": 0.5, "mala": 0.4}),
    "tiny-step": (1000, 0, {("rwm", 2): 0.04, ("rwm", 6): 0.006, "mala": 0.3}),
    "large-step": (1000, 0, {("rwm", 2): 2.0, ("rwm", 6): 0.9, "mala": 0.8}),
    "mis-tuned": (300, 0, {"rwm": 1e6, "mala": 1e6}),
}


def _chain_fields(spec, params, cfg, chain_index):
    b = run_chain(spec, params, cfg, chain_index)
    return b.coords, b.log_densities, b.acceptance_rate, b.step_final


def test_chain_does_not_depend_on_chain_count():
    # chain i's stream is keyed by (seed, i) alone: chain 1 of 2 is chain 1 of 10^5
    cfg = SamplerConfig(n_steps=1000, burn_in=0, step=0.5, seed=11, n_chains=2)
    want = _chain_fields(POWER4, PARAMS2, cfg, 1)
    got = _chain_fields(POWER4, PARAMS2, dataclasses.replace(cfg, n_chains=10**5), 1)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2:] == want[2:]


def _outcome(run, *args):
    try:
        return run(*args)
    except RuntimeError as err:
        return str(err)


@pytest.mark.parametrize("config", sorted(REFERENCE_CONFIGS))
@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("algorithm", ["rwm", "mala"])
def test_chain_equals_one_step_reference(algorithm, n, config):
    n_steps, burn_in, steps = REFERENCE_CONFIGS[config]
    step = steps.get((algorithm, n), steps.get(algorithm))
    cfg = SamplerConfig(
        n_steps=n_steps, burn_in=burn_in, step=step, seed=11, n_chains=2, algorithm=algorithm
    )
    params = GroupParams(n)
    want = _outcome(_one_step_chain, POWER4, params, cfg, 1)
    got = _outcome(_chain_fields, POWER4, params, cfg, 1)
    if config == "mis-tuned":
        assert want.startswith("Acceptance rate 0.000") and got == want
        return
    coords, logdens, rate, step_final = got
    assert coords.shape == want[0].shape == (n_steps - burn_in, 2 * n + 1)
    assert coords.tobytes() == want[0].tobytes()
    assert logdens.tobytes() == want[1].tobytes()
    assert (rate, step_final) == want[2:]
    if algorithm == "rwm" and config == "tiny-step":
        assert rate > 0.9  # nearly every second-level branch is walked
    if algorithm == "rwm" and config == "large-step":
        assert rate < 0.05  # the all-reject path dominates


def test_batch_means_se_iid():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(100_000)
    se = batch_means_se(vals)
    want = vals.std() / np.sqrt(vals.size)
    assert 0.5 * want < se < 2.0 * want


def test_batch_means_se_needs_enough_data():
    with pytest.raises(ValueError):
        batch_means_se(np.arange(10.0))
