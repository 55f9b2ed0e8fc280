"""Gauge-radial measure families and Markov chain samplers.

A family picks a profile g and the measure is dmu = e^{-g(N)} / Z dlambda.
The four families:

    power        g(N) = N^k,               k >= 4
    cosh-power   g(N) = cosh(N^k),         k >= 1
    power-log    g(N) = N^k log(N + 1),    k >= 3
    alpha-power  g(N) = a N^p,             a > 0, p >= 4

The carre-du-champ weight eta(N) = g'(N) / N^2 drives the coercive
inequalities; its empirical mean anchors the fitted constant D.  The
inequalities' exponents q and beta are not the measure's: coercive takes
and checks them.  A SampleBatch records the spec it was drawn from.

The samplers are plain random-walk Metropolis (default) and MALA on the
(2n+1)-dimensional coordinate space.  Chains are reproducible: chain i of a
seeded run always consumes the i-th spawn of the seed sequence, however many
chains the caller runs.

A sampler step on one row costs little more than numpy's per-call overhead,
so the samplers score many proposals per gauge call.  The increments
step * normal are computed once per window of constant step size (each
tuning window, then all of post-burn-in).  From the current state the
random walk scores a two-level tree in one gauge call: the up to _PREFETCH
proposals of the next steps as if each were rejected, and for each of them
the _PREFETCH proposals that follow if it is the first one accepted, read
off the increments as sliding windows.  The walk over the pre-drawn
uniforms then takes up to two acceptances.  MALA's drift needs the new
state's gradient, so it scores the first level only.  Every proposal is
state + increment (MALA: drift + increment), computed element for element
as in a one-step loop; the gauge is evaluated row by row, so a row's score
does not depend on the batch it sits in; and the accept/reject tests
compare the same doubles, on Python floats whose - and < are IEEE's.  So
every chain is the same bit for bit as if it were run step by step.  The
kept rows are recorded as runs of a repeated state and expanded once at the
end.

Per call, numpy's overhead, not arithmetic, sets the cost, so each step
makes few numpy calls.  The random walk enters one error state per chain.
MALA carries its drift: after an acceptance it is the accepted row of the
back-projection, which holds the doubles state + step^2/2 grad; it builds
its gradient in one (m, 2n+1) array and reduces both quadratic forms in
one call.  On a 2-vCPU Xeon (numpy 2.4, n = 6), norm_batch on a 72-row
tree takes 17.0 us and partials_batch on 8 rows 30.2 us, against 19.3 and
35.1 us before these cuts; a step costs 5.9 us (random walk) and 46.8 us
(MALA), against 6.6 and 57.9 us.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .group import _check_n
from .norm import norm_batch, partials_batch

__all__ = [
    "MeasureSpec",
    "SamplerConfig",
    "SampleBatch",
    "g_value",
    "g_prime",
    "eta_weight",
    "run_chain",
    "batch_means_se",
]

# the parameters each family's g reads, and their least values; alpha's bound is strict
_FAMILY_PARAMS = {"power": {"k": 4}, "cosh-power": {"k": 1}, "power-log": {"k": 3}, "alpha-power": {"alpha": 0, "p": 4}}
FAMILIES = tuple(_FAMILY_PARAMS)
ALGORITHMS = ("rwm", "mala")
N_BATCHES = 50  # batch_means_se's batches


@dataclass(frozen=True)
class MeasureSpec:
    """One measure dmu = e^{-g(N)}/Z dlambda."""

    family: str
    k: Optional[float] = None
    alpha: Optional[float] = None
    p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_PARAMS:
            raise ValueError(f"Unknown family {self.family!r}; choose from {FAMILIES}.")
        reads = _FAMILY_PARAMS[self.family]
        # a parameter that g does not read would be recorded and never used
        for name in ("k", "alpha", "p"):
            if name not in reads and getattr(self, name) is not None:
                raise ValueError(f"{self.family} family does not read {name}.")
        for name, least in reads.items():
            value, op = getattr(self, name), ">" if name == "alpha" else ">="
            if value is None or not math.isfinite(value) or value < least or (op == ">" and value == least):
                raise ValueError(f"{self.family} family needs a finite {name} {op} {least}, got {value}.")

    def label(self) -> str:
        return f"{self.family}({', '.join(f'{name}={getattr(self, name)}' for name in _FAMILY_PARAMS[self.family])})"


def g_value(spec: MeasureSpec, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if spec.family == "power":
        return r ** spec.k
    if spec.family == "cosh-power":
        return np.cosh(r ** spec.k)
    if spec.family == "power-log":
        return r ** spec.k * np.log1p(r)
    return spec.alpha * r ** spec.p


def g_prime(spec: MeasureSpec, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    k = spec.k
    if spec.family == "power":
        return k * r ** (k - 1)
    if spec.family == "cosh-power":
        return k * r ** (k - 1) * np.sinh(r ** k)
    if spec.family == "power-log":
        return k * r ** (k - 1) * np.log1p(r) + r ** k / (1.0 + r)
    return spec.alpha * spec.p * r ** (spec.p - 1)


def eta_weight(spec: MeasureSpec, r: np.ndarray) -> np.ndarray:
    """The carre-du-champ weight eta(N) = g'(N) / N^2."""
    r = np.asarray(r, dtype=float)
    return g_prime(spec, r) / (r * r)


# -- samplers -----------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Random-walk Metropolis / MALA settings.

    Args:
        n_steps: total steps including burn-in.
        burn_in: steps discarded; the step size is tuned only here.
        step: initial proposal scale.
        seed: seed for the chain seed-sequence.
        algorithm: "rwm" or "mala".
    """

    n_steps: int = 110_000
    burn_in: int = 10_000
    step: float = 0.25
    seed: int = 0
    algorithm: str = "rwm"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"Unknown algorithm {self.algorithm!r}.")
        if not (0 <= self.burn_in < self.n_steps):
            raise ValueError("Need 0 <= burn_in < n_steps.")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError(f"Need a finite step > 0, got {self.step}.")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampleBatch:
    """Post-burn-in draws of one chain of spec's measure; every array is read-only.

    Values that follow from the gauge are derived once, on first read.
    """

    spec: MeasureSpec
    coords: np.ndarray  # (m, 2n+1)
    acceptance_rate: float
    chain_index: int
    step_final: float
    gauge: np.ndarray  # (m,) N of every row, the sampler's own values

    @cached_property
    def log_densities(self) -> np.ndarray:
        """Unnormalised log density -g(N) of every row."""
        return _read_only(-g_value(self.spec, self.gauge))

    @cached_property
    def eta(self) -> np.ndarray:
        """The carre-du-champ weight eta(N) of every row."""
        return _read_only(eta_weight(self.spec, self.gauge))

    @cached_property
    def grad_norms(self) -> np.ndarray:
        """|grad_H N| of every row, from one partials_batch call."""
        pb = partials_batch(self.coords[:, :-1], self.coords[:, -1])
        return _read_only(np.sqrt(pb.grad_sq))


def _log_pi_rows(spec: MeasureSpec, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauge and log pi of every row."""
    norms = norm_batch(coords[:, :-1], coords[:, -1])
    return norms, -g_value(spec, norms)


def _log_pi_grad_rows(
    spec: MeasureSpec, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauge, log pi and its Euclidean gradient from one partials_batch call.

    The gradient -g'(N) (dN/dx, dN/dt) is built in one (m, 2n+1) array: every
    dN/dx_j is written as x_j block_slope, then the pair columns as x_j pair_slope.
    """
    pb = partials_batch(coords[:, :-1], coords[:, -1])
    n = pb.x.shape[1] // 2
    grad = np.empty(coords.shape)
    np.multiply(pb.x, pb.block_slope[:, None], out=grad[:, :-1])
    np.multiply(pb.x[:, ::n], pb.pair_slope[:, None], out=grad[:, : 2 * n : n])
    grad[:, -1] = pb.dN_dt
    np.multiply(-g_prime(spec, pb.N)[:, None], grad, out=grad)
    return pb.N, -g_value(spec, pb.N), grad


TUNE_INTERVAL = 200
TARGET_ACCEPT = 0.25
_PREFETCH = 8  # proposals per level of a scored tree


def _first_accept(
    log_us: list, log_pi: list, current: float, count: int, u0: int = 0, p0: int = 0
) -> int:
    """First k < count with log_us[u0 + k] < log_pi[p0 + k] - current, else count."""
    for k in range(count):
        if log_us[u0 + k] < log_pi[p0 + k] - current:
            return k
    return count


def run_chain(
    spec: MeasureSpec,
    n: int,
    cfg: SamplerConfig,
    chain_index: int,
) -> SampleBatch:
    """Run chain chain_index >= 0 of cfg.seed; it is the same however many chains a caller runs.

    The proposal scale is tuned toward 25% acceptance during burn-in and
    frozen afterwards.  A post-burn-in acceptance rate outside [0.02, 0.98]
    raises, signalling a mis-tuned step.

    Proposals are scored in trees (see the module docstring).  A window of
    constant step ends at each tuning boundary and at the end of burn-in;
    its increments inc_j = step * normals[j] are computed once, in place, when
    the window starts.  A continuation may run past the window's end, into
    rows not yet scaled or into the _PREFETCH zero rows past the last step:
    those rows are scored but never walked.
    A random-walk tree from state s at step i holds p_k = s + inc_{i+k} for
    k < m = min(_PREFETCH, end - i), then for each k the rows
    p_k + inc_{i+k+1+c} for c < _PREFETCH: the proposal of step i + k + 1 + c
    when step i + k is the first acceptance.  These are the additions a
    one-step loop makes, the gauge of a row does not depend on its batch, and
    the walk compares the same doubles, so the chain is that loop's bit for
    bit.  Each acceptance after burn-in starts a run of kept rows; the runs'
    states are copied into one buffer (no kept row is a view of a scored
    tree) and expanded with np.repeat at the end.
    """
    _check_n(n)
    if chain_index < 0:
        raise ValueError(f"Need chain_index >= 0, got {chain_index}.")
    # the stream spawn(m)[chain_index] gives for any m > chain_index, without spawning
    stream = np.random.SeedSequence(cfg.seed, spawn_key=(chain_index,))
    rng = np.random.default_rng(stream)
    dim = 2 * n + 1

    state = rng.standard_normal(dim)
    step = cfg.step
    mala = cfg.algorithm == "mala"

    # _PREFETCH zero rows past the last step make every continuation a full
    # sliding window
    normals = np.zeros((cfg.n_steps + _PREFETCH, dim))
    rng.standard_normal(out=normals[: cfg.n_steps])
    log_us = np.log(rng.random(cfg.n_steps))
    conts = sliding_window_view(normals, _PREFETCH, axis=0).swapaxes(1, 2)

    burn = cfg.burn_in
    n_kept = cfg.n_steps - burn
    # run r repeats run_rows[r] (gauge run_norms[r]) from kept row run_starts[r]
    run_rows = np.empty((n_kept + 1, dim))
    run_norms = np.empty(n_kept + 1)
    run_starts: list[int] = []
    squares = np.empty((2, _PREFETCH, dim))  # MALA's two quadratic forms
    # a far proposal's g can overflow to inf, and log pi = -inf rejects it: the
    # random walk ignores that overflow, in one error state per chain; MALA's
    # arithmetic keeps the caller's
    with contextlib.nullcontext() if mala else np.errstate(over="ignore"):
        if mala:
            norm, logpi, grad = (v[0] for v in _log_pi_grad_rows(spec, state[None, :]))
        else:
            norm, logpi = (v[0] for v in _log_pi_rows(spec, state[None, :]))
        logpi = float(logpi)

        accepted_window = 0
        accepted_main = 0
        i = 0
        while i < cfg.n_steps:
            if i < burn:
                end = min(burn, (i // TUNE_INTERVAL + 1) * TUNE_INTERVAL)
            else:
                end = cfg.n_steps
                run_starts.append(0)
                run_rows[0] = state
                run_norms[0] = norm
            # the window's increments, in place: normals[j] becomes step * normals[j]
            np.multiply(step, normals[i:end], out=normals[i:end])
            if mala:
                half_ss = 0.5 * step * step
                drift = state + half_ss * grad
            while i < end:
                m = min(_PREFETCH, end - i)
                us = log_us[i : i + m + _PREFETCH].tolist()
                if mala:
                    props = drift + normals[i : i + m]
                    prop_norms, prop_logpi, prop_grad = _log_pi_grad_rows(spec, props)
                    back = props + half_ss * prop_grad
                    # -|props - drift|^2 and -|state - back|^2 over 2 step^2, reduced
                    # together; s / -d is -s / d bit for bit
                    sq = squares[:, :m]
                    np.subtract(props, drift, out=sq[0])
                    np.subtract(state, back, out=sq[1])
                    np.square(sq, out=sq)
                    fwd_q, back_q = np.add.reduce(sq, axis=2) / -(2.0 * step * step)
                    log_ratio = (prop_logpi - logpi + back_q - fwd_q).tolist()
                    k = _first_accept(us, log_ratio, 0.0, m)
                    hits = [(k, i + k)] if k < m else []
                    walked = min(k + 1, m)
                    if hits:
                        logpi = float(prop_logpi[k])
                        grad = prop_grad[k]
                        drift = back[k]  # state + half_ss grad, as that sum
                else:
                    props = np.empty(((_PREFETCH + 1) * m, dim))
                    np.add(state, normals[i : i + m], out=props[:m])
                    np.add(
                        props[:m, None],
                        conts[i + 1 : i + 1 + m],
                        out=props[m:].reshape(m, _PREFETCH, dim),
                    )
                    prop_norms, prop_logpi = _log_pi_rows(spec, props)
                    lp = prop_logpi.tolist()
                    k = _first_accept(us, lp, logpi, m)
                    hits = []
                    walked = m
                    if k < m:
                        # after an acceptance at step i + k, step i + k + 1 + c
                        # proposes row m + k _PREFETCH + c
                        hits.append((k, i + k))
                        logpi = lp[k]
                        row = m + k * _PREFETCH
                        room = min(_PREFETCH, end - (i + k + 1))
                        c = _first_accept(us, lp, logpi, room, k + 1, row)
                        walked = k + 1 + min(c + 1, room)
                        if c < room:
                            hits.append((row + c, i + k + 1 + c))
                            logpi = lp[row + c]
                i += walked
                for h, g in hits:
                    state = props[h]
                    norm = prop_norms[h]
                    if g >= burn:
                        accepted_main += 1
                        r = len(run_starts)
                        run_starts.append(g - burn)
                        run_rows[r] = state
                        run_norms[r] = norm
                    else:
                        accepted_window += 1

            if i <= burn and i % TUNE_INTERVAL == 0:
                rate = accepted_window / TUNE_INTERVAL
                step *= math.exp(0.5 * (rate - TARGET_ACCEPT))
                accepted_window = 0

    del normals, conts  # free the increments before the kept rows are built
    rate = accepted_main / n_kept
    if not 0.02 <= rate <= 0.98:
        raise RuntimeError(
            f"Acceptance rate {rate:.3f} outside [0.02, 0.98]; step mis-tuned."
        )
    counts = np.diff(run_starts + [n_kept])
    kept = np.repeat(run_rows[: len(run_starts)], counts, axis=0)
    kept_norms = np.repeat(run_norms[: len(run_starts)], counts)
    return SampleBatch(
        spec=spec,
        coords=_read_only(kept),
        acceptance_rate=rate,
        chain_index=chain_index,
        step_final=step,
        gauge=_read_only(kept_norms),
    )


def batch_means_se(values: np.ndarray) -> float:
    """Batch-means standard error over N_BATCHES batches for a stationary chain functional.

    Finite wherever the batch means are, and exact under scaling by a power of two.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2 * N_BATCHES:
        raise ValueError(f"Need at least {2 * N_BATCHES} values for {N_BATCHES} batches.")
    usable = values.size - values.size % N_BATCHES
    means = values[:usable].reshape(N_BATCHES, -1).mean(axis=1)
    # the means' squared deviations can overflow where the means do not: scaled by
    # a power of two to below 1, they cannot, and the scaling is exact
    exp = int(np.frexp(np.max(np.abs(means)))[1])
    return float(np.ldexp(np.std(np.ldexp(means, -exp), ddof=1) / math.sqrt(N_BATCHES), exp))
