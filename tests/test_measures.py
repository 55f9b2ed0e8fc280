import dataclasses
import math
import warnings

import numpy as np
import pytest

import pins
from conftest import FD_STEP
from reference import fd_gradient

from hgauge import coercive, measures
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
)
from hgauge.measures import _log_pi_grad_rows, _log_pi_rows

POWER4 = MeasureSpec(family="power", k=4.0)
COSH1 = MeasureSpec(family="cosh-power", k=1.0)
PLOG3 = MeasureSpec(family="power-log", k=3.0)
APOW = MeasureSpec(family="alpha-power", alpha=1.0, p=4.0)
COSH3 = MeasureSpec(family="cosh-power", k=3.0)
PLOG4 = MeasureSpec(family="power-log", k=4.0)

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
        MeasureSpec(family="alpha-power", alpha=0.0, p=4.0)
    # a parameter the family's g does not read is refused, by name
    unread = [("alpha-power", "k")]
    unread += [(family, name) for family in ("power", "cosh-power", "power-log") for name in ("alpha", "p")]
    for family, name in unread:
        read = {"alpha": 1.0, "p": 4.0} if family == "alpha-power" else {"k": 4.0}
        with pytest.raises(ValueError, match=f"does not read {name}"):
            MeasureSpec(family=family, **read, **{name: 3.0})


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


# -- the beta-LSI exponent's cap, set by the measure's growth ------------------


@pytest.mark.parametrize(
    "spec, beta",
    [(APOW, 0.3), (APOW, 0.0), (APOW, -0.1), (POWER4, 0.0), (POWER4, -1.0), (POWER4, math.nan),
     (POWER4, math.inf), (POWER4, None), (COSH1, 5.0), (COSH1, 1.0), (COSH3, 1.5), (PLOG3, 0.7),
     (PLOG3, 1e-9), (PLOG4, 0.3)],
)
def test_lsi_conditions_reject_bad_beta(spec, beta):
    # beta is the beta-LSI's exponent, checked once in coercive: finite and > 0,
    # and capped for every family so that N^2 g^beta / g' is bounded on {N >= 1}:
    # at most (d-3)/d for g of degree d (0.3 > 1/4 at d = 4; power-log at k = 3
    # admits no beta), and for cosh-power below 1, or 1 with k >= 3
    with pytest.raises(ValueError, match="beta"):
        coercive._check_beta(spec, beta)


@pytest.mark.parametrize(
    "spec, beta",
    [(APOW, 0.25), (POWER4, 0.25), (COSH1, 0.999), (COSH3, 1.0), (PLOG4, 0.25),
     (MeasureSpec(family="power-log", k=6.0), 0.5)],
)
def test_lsi_conditions_accept_beta_within_its_cap(spec, beta):
    coercive._check_beta(spec, beta)


# -- sampler --------------------------------------------------------------------

SHORT = SamplerConfig(n_steps=12_000, burn_in=2_000, step=0.3, seed=5)
CHAIN_N = 2


@pytest.mark.parametrize(
    "settings, chain_index",
    [({"algorithm": "hmc"}, 0), ({"burn_in": -1}, 0), ({"burn_in": 1000}, 0), ({}, -1)],
    ids=["algorithm", "burn-negative", "burn-all", "index-negative"],
)
def test_sampler_inputs_are_refused(settings, chain_index):
    # SamplerConfig checks its settings, run_chain its chain index, before a step runs
    with pytest.raises(ValueError):
        cfg = SamplerConfig(**{"n_steps": 1000, **settings})
        run_chain(POWER4, CHAIN_N, cfg, chain_index)


def test_chain_determinism():
    b1 = run_chain(POWER4, CHAIN_N, SHORT, 0)
    b2 = run_chain(POWER4, CHAIN_N, SHORT, 0)
    assert np.array_equal(b1.coords, b2.coords)
    assert b1.acceptance_rate == b2.acceptance_rate


def test_chains_are_stream_independent():
    b0 = run_chain(POWER4, CHAIN_N, SHORT, 0)
    b1 = run_chain(POWER4, CHAIN_N, SHORT, 1)
    assert not np.array_equal(b0.coords, b1.coords)
    # both target the same distribution
    assert abs(np.mean(b0.gauge) - np.mean(b1.gauge)) < 0.1


def test_chain_output_shapes():
    b = run_chain(POWER4, CHAIN_N, SHORT, 0)
    assert b.coords.shape == (10_000, 5)
    assert b.log_densities.shape == (10_000,)
    assert 0.1 < b.acceptance_rate < 0.6
    assert b.chain_index == 0


def test_batch_is_read_only_and_derives_once():
    b = run_chain(POWER4, CHAIN_N, SHORT, 0)
    with pytest.raises(ValueError):
        b.coords[0, 0] = 1.0
    for name in ("gauge", "log_densities", "eta", "grad_norms"):
        values = getattr(b, name)
        assert values is getattr(b, name) and not values.flags.writeable, name
    assert b.log_densities.tobytes() == (-g_value(POWER4, b.gauge)).tobytes()
    assert b.eta.tobytes() == eta_weight(POWER4, b.gauge).tobytes()


def test_acceptance_guard_fires():
    cfg = SamplerConfig(n_steps=3_000, burn_in=0, step=1e6, seed=1)
    with pytest.raises(RuntimeError):
        run_chain(POWER4, CHAIN_N, cfg, 0)


@pytest.mark.parametrize("algorithm", ["rwm", "mala"])
def test_chain_restores_the_error_state(algorithm):
    # the random walk ignores overflow for the whole chain; numpy's error state
    # is the caller's again after a chain that returns and after one that raises
    ok = SamplerConfig(n_steps=600, burn_in=200, step=0.4, seed=1, algorithm=algorithm)
    mis_tuned = dataclasses.replace(ok, step=1e6)
    for state in ({}, {"all": "raise", "under": "ignore"}):
        with np.errstate(**state):
            before = np.geterr()
            run_chain(POWER4, CHAIN_N, ok, 0)
            assert np.geterr() == before
            with pytest.raises(RuntimeError, match="mis-tuned"):
                run_chain(POWER4, CHAIN_N, mis_tuned, 0)
            assert np.geterr() == before


def test_mala_smoke():
    cfg = dataclasses.replace(SHORT, algorithm="mala", step=0.4)
    b = run_chain(POWER4, CHAIN_N, cfg, 0)
    assert 0.05 < b.acceptance_rate < 0.98
    rwm = run_chain(POWER4, CHAIN_N, SHORT, 0)
    se = batch_means_se(b.gauge) + batch_means_se(rwm.gauge)
    assert abs(np.mean(b.gauge) - np.mean(rwm.gauge)) < 6 * se


def test_log_densities_recorded_correctly():
    b = run_chain(POWER4, CHAIN_N, SHORT, 0)
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

    # chain_parts must go through the module-level run_chain, once per chain
    monkeypatch.setattr(measures, "run_chain", counted)
    parts = pins.chain_parts((algorithm, family, n))
    assert calls == [0, 1]
    assert pins.digest(parts) == pins.CHAIN_DIGESTS[algorithm, family, n]


def _one_step_chain(spec, n, cfg, chain_index, spawned=2):
    """The reference sampler: a plain loop scoring one proposal per gauge call.

    Its stream is chain_index's of `spawned` chains.  Returns (coords,
    log-densities, acceptance, step_final) as run_chain's batch does, and
    raises as run_chain does on a mis-tuned step.
    """
    stream = np.random.SeedSequence(cfg.seed).spawn(spawned)[chain_index]
    rng = np.random.default_rng(stream)
    dim = 2 * n + 1
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


def _chain_fields(spec, n, cfg, chain_index):
    b = run_chain(spec, n, cfg, chain_index)
    return b.coords, b.log_densities, b.acceptance_rate, b.step_final


def test_chain_does_not_depend_on_chain_count():
    # chain i's stream is keyed by (seed, i) alone: chain 1 is the second
    # spawn of the seed whether 2 or 1000 streams are spawned
    cfg = SamplerConfig(n_steps=1000, burn_in=0, step=0.5, seed=11)
    want = _one_step_chain(POWER4, CHAIN_N, cfg, 1, spawned=1000)
    got = _chain_fields(POWER4, CHAIN_N, cfg, 1)
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
        n_steps=n_steps, burn_in=burn_in, step=step, seed=11, algorithm=algorithm
    )
    want = _outcome(_one_step_chain, POWER4, n, cfg, 1)
    got = _outcome(_chain_fields, POWER4, n, cfg, 1)
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


def test_batch_means_se_scales_exactly():
    # scaling the values by 2^k scales the error by 2^k bit for bit, also where
    # the means' squared deviations would overflow or underflow
    vals = np.random.default_rng(12).standard_normal(5_000)
    se = batch_means_se(vals)
    for k in (-1000, -600, 600, 1000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert batch_means_se(np.ldexp(vals, k)) == np.ldexp(se, k), k
    assert batch_means_se(np.full(200, 3.0)) == 0.0


def test_batch_means_se_needs_enough_data():
    with pytest.raises(ValueError):
        batch_means_se(np.arange(10.0))
