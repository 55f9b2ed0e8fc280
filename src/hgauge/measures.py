"""Gauge-radial measure families and Markov chain samplers.

A family picks a profile g and the measure is dmu = e^{-g(N)} / Z dlambda.
The four families:

    power        g(N) = N^k,               k >= 4
    cosh-power   g(N) = cosh(N^k),         k >= 1
    power-log    g(N) = N^k log(N + 1),    k >= 3
    alpha-power  g(N) = a N^p,             a > 0, p >= 4, 0 < beta <= (p-3)/p

The carre-du-champ weight eta(N) = g'(N) / N^2 drives the coercive
inequalities; its empirical mean anchors the feasibility grids.

Two families of sufficient conditions are exposed as grid checks:

    slope condition      g''(N) <= g'(N)^2 on a gauge grid
    lsi conditions       g' nondecreasing, g(N) <= (c g'(N)/N^2)^(1/beta),
                         and g''(N) < d g'(N)^2, all on {N >= 1}

The samplers are plain random-walk Metropolis (default) and MALA on the
(2n+1)-dimensional coordinate space.  Chains are reproducible: chain i of a
seeded run always consumes the i-th spawn of the seed sequence, whether run
alone or as part of run_chains.

A sampler step on one row costs little more than numpy's per-call overhead,
so the samplers prefetch along the all-reject path: from the current state
they build the proposals of up to _PREFETCH steps, score them with one gauge
call, and walk the pre-drawn uniforms to the first acceptance.  The
proposals, scores and comparisons of each step are those of a one-step loop,
element for element, so every chain is the same bit for bit as if it were
run step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .group import GroupParams, Point
from .inequalities import InequalityReport
from .norm import norm_batch, partials_batch

__all__ = [
    "MeasureSpec",
    "SamplerConfig",
    "SampleBatch",
    "g_value",
    "g_prime",
    "g_second",
    "eta_weight",
    "log_density",
    "grad_log_density",
    "check_slope_condition",
    "check_lsi_conditions",
    "condition_grid_start",
    "run_chain",
    "run_chains",
    "batch_means_se",
]

FAMILIES = ("power", "cosh-power", "power-log", "alpha-power")


@dataclass(frozen=True)
class MeasureSpec:
    """One measure dmu = e^{-g(N)}/Z dlambda with integrability exponent q."""

    family: str
    k: Optional[float] = None
    alpha: Optional[float] = None
    p: Optional[float] = None
    beta: Optional[float] = None
    q: float = 2.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"Unknown family {self.family!r}; choose from {FAMILIES}.")
        if self.q < 2:
            raise ValueError(f"Need q >= 2, got {self.q}.")
        if self.family == "power":
            if self.k is None or self.k < 4:
                raise ValueError(f"power family needs k >= 4, got {self.k}.")
        elif self.family == "cosh-power":
            if self.k is None or self.k < 1:
                raise ValueError(f"cosh-power family needs k >= 1, got {self.k}.")
        elif self.family == "power-log":
            if self.k is None or self.k < 3:
                raise ValueError(f"power-log family needs k >= 3, got {self.k}.")
        else:
            if self.alpha is None or self.alpha <= 0:
                raise ValueError(f"alpha-power family needs alpha > 0, got {self.alpha}.")
            if self.p is None or self.p < 4:
                raise ValueError(f"alpha-power family needs p >= 4, got {self.p}.")
            if self.beta is None or not (0 < self.beta <= (self.p - 3) / self.p):
                raise ValueError(
                    f"alpha-power family needs 0 < beta <= (p-3)/p, got beta={self.beta}."
                )

    def label(self) -> str:
        if self.family == "alpha-power":
            return f"alpha-power(alpha={self.alpha}, p={self.p}, beta={self.beta})"
        return f"{self.family}(k={self.k})"


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


def g_second(spec: MeasureSpec, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    k = spec.k
    if spec.family == "power":
        return k * (k - 1) * r ** (k - 2)
    if spec.family == "cosh-power":
        rk = r ** k
        return k * (k - 1) * r ** (k - 2) * np.sinh(rk) + (k * r ** (k - 1)) ** 2 * np.cosh(rk)
    if spec.family == "power-log":
        return (
            k * (k - 1) * r ** (k - 2) * np.log1p(r)
            + 2.0 * k * r ** (k - 1) / (1.0 + r)
            - r ** k / (1.0 + r) ** 2
        )
    return spec.alpha * spec.p * (spec.p - 1) * r ** (spec.p - 2)


def slope_ratio(spec: MeasureSpec, r: np.ndarray) -> np.ndarray:
    """g''(N) / g'(N)^2 on the grid.

    The cosh family needs a dedicated branch: sinh(N^k) overflows float64
    near N^k ~ 710 while the ratio itself decays to zero, so it is evaluated
    through csch and coth in the e^(-z) domain.
    """
    r = np.asarray(r, dtype=float)
    if spec.family == "cosh-power":
        k = spec.k
        z = r ** k
        ez = np.exp(-z)
        denom = 1.0 - ez * ez
        csch = 2.0 * ez / denom
        coth = (1.0 + ez * ez) / denom
        return ((k - 1.0) / (k * z)) * csch + coth * csch
    gp = g_prime(spec, r)
    return g_second(spec, r) / (gp * gp)


def eta_weight(spec: MeasureSpec, r: np.ndarray) -> np.ndarray:
    """The carre-du-champ weight eta(N) = g'(N) / N^2."""
    r = np.asarray(r, dtype=float)
    return g_prime(spec, r) / (r * r)


def log_density(spec: MeasureSpec, p: Point, params: GroupParams) -> float:
    """log of the unnormalised density, -g(N(p))."""
    if p.n != params.n:
        raise ValueError("Point/params dimension mismatch.")
    val = norm_batch(p.x[None, :], np.asarray([p.t]))[0]
    return float(-g_value(spec, val))


def grad_log_density(spec: MeasureSpec, p: Point, params: GroupParams) -> np.ndarray:
    """Euclidean gradient of the log density: -g'(N) (dN/dx_1, ..., dN/dt)."""
    if not np.any(p.x):
        raise ValueError("grad_log_density is undefined on the central line x = 0.")
    pb = partials_batch(p.x[None, :], np.asarray([p.t]))
    gp = float(g_prime(spec, pb.N[0]))
    return -gp * np.concatenate([pb.dN_dx[0], [pb.dN_dt[0]]])


# -- condition grids ---------------------------------------------------------


def condition_grid_start(spec: MeasureSpec) -> float:
    """Left endpoint from which the slope condition holds for the family.

    power: from 1.  cosh-power: from 3/2 (cosh N >= golden ratio fails below
    ~1.0612 for k = 1).  power-log: from 1.05; the condition genuinely fails
    on a short interval at the left end of {N >= 1} (for k = 3 it crosses
    near N ~ 1.0103), and 1.05 clears the crossing for k up to 20.
    alpha-power: from 1.
    """
    if spec.family == "cosh-power":
        return 1.5
    if spec.family == "power-log":
        return 1.05
    return 1.0


def check_slope_condition(spec: MeasureSpec, n_grid: np.ndarray) -> InequalityReport:
    """g'(N)^2 - g''(N) >= 0 on the given grid, normalised by g'(N)^2."""
    r = np.asarray(n_grid, dtype=float)
    if np.any(r <= 0):
        raise ValueError("Grid radii must be positive.")
    margins = 1.0 - slope_ratio(spec, r)
    worst = int(np.argmin(margins))
    return InequalityReport(
        name="slope-condition",
        n_points=r.size,
        min_margin=float(margins[worst]),
        worst_point=float(r[worst]),
        tolerance=0.0,
        passed=bool(margins[worst] >= 0.0),
    )


def check_lsi_conditions(
    spec: MeasureSpec, n_grid: np.ndarray, c: float, d: float
) -> InequalityReport:
    """The three grid conditions behind the q log-Sobolev bound.

    Margins (all scale-free): relative increments of g', the ratio
    1 - g / (c g'/N^2)^(1/beta), and 1 - g'' / (d g'^2).  The report carries
    the worst of the three.
    """
    if spec.beta is None:
        raise ValueError("LSI conditions need a family with a beta exponent.")
    if not (c > 0 and d > 0):
        raise ValueError("Need c > 0 and d > 0.")
    r = np.sort(np.asarray(n_grid, dtype=float))
    if np.any(r < 1.0):
        raise ValueError("LSI condition grid lives on {N >= 1}.")
    gp = g_prime(spec, r)
    gv = g_value(spec, r)
    gs = g_second(spec, r)

    inc = np.diff(gp) / np.abs(gp[:-1])
    dominating = (c * gp / (r * r)) ** (1.0 / spec.beta)
    m_grow = 1.0 - gv / dominating
    m_curv = 1.0 - gs / (d * gp * gp)

    candidates = [
        ("monotone-slope", inc, r[:-1]),
        ("beta-growth", m_grow, r),
        ("curvature", m_curv, r),
    ]
    worst_name, worst_margin, worst_r = None, np.inf, None
    for name, vals, grid in candidates:
        i = int(np.argmin(vals))
        if vals[i] < worst_margin:
            worst_name, worst_margin, worst_r = name, float(vals[i]), float(grid[i])
    return InequalityReport(
        name=f"lsi-conditions({worst_name})",
        n_points=r.size,
        min_margin=worst_margin,
        worst_point=worst_r,
        tolerance=0.0,
        passed=bool(worst_margin > 0.0),
    )


# -- samplers -----------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Random-walk Metropolis / MALA settings.

    Args:
        n_steps: total steps including burn-in.
        burn_in: steps discarded; the step size is tuned only here.
        step: initial proposal scale.
        seed: seed for the chain seed-sequence.
        n_chains: number of independent chains (spawned streams).
        algorithm: "rwm" or "mala".
    """

    n_steps: int = 110_000
    burn_in: int = 10_000
    step: float = 0.25
    seed: int = 0
    n_chains: int = 1
    algorithm: str = "rwm"

    def __post_init__(self) -> None:
        if self.algorithm not in ("rwm", "mala"):
            raise ValueError(f"Unknown algorithm {self.algorithm!r}.")
        if not (0 <= self.burn_in < self.n_steps):
            raise ValueError("Need 0 <= burn_in < n_steps.")
        if not self.step > 0:
            raise ValueError("Need step > 0.")
        if self.n_chains < 1:
            raise ValueError("Need n_chains >= 1.")


@dataclass(frozen=True)
class SampleBatch:
    """Post-burn-in draws of one chain."""

    coords: np.ndarray        # (m, 2n+1)
    log_densities: np.ndarray  # (m,) unnormalised
    acceptance_rate: float
    chain_index: int
    step_final: float
    _norms: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _grad_norms: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def norms(self) -> np.ndarray:
        """Gauge of every row, read-only; computed on the first call and kept."""
        if self._norms is None:
            norms = norm_batch(self.coords[:, :-1], self.coords[:, -1])
            norms.flags.writeable = False
            object.__setattr__(self, "_norms", norms)
        return self._norms

    def grad_norms(self) -> np.ndarray:
        """|grad_H N| of every row, read-only; one partials_batch call, kept."""
        if self._grad_norms is None:
            pb = partials_batch(self.coords[:, :-1], self.coords[:, -1])
            grad_norms = np.sqrt(pb.grad_sq)
            grad_norms.flags.writeable = False
            object.__setattr__(self, "_grad_norms", grad_norms)
        return self._grad_norms


def _log_pi_rows(spec: MeasureSpec, coords: np.ndarray) -> np.ndarray:
    return -g_value(spec, norm_batch(coords[:, :-1], coords[:, -1]))


def _log_pi_grad_rows(spec: MeasureSpec, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log pi and its Euclidean gradient from one partials_batch call."""
    pb = partials_batch(coords[:, :-1], coords[:, -1])
    gp = g_prime(spec, pb.N)
    grad = np.concatenate([pb.dN_dx, pb.dN_dt[:, None]], axis=1)
    return -g_value(spec, pb.N), -gp[:, None] * grad


TUNE_INTERVAL = 200
TARGET_ACCEPT = 0.25
_PREFETCH = 8  # proposals scored per gauge call


def run_chain(
    spec: MeasureSpec,
    params: GroupParams,
    cfg: SamplerConfig,
    chain_index: int = 0,
) -> SampleBatch:
    """Run one chain; deterministic given (cfg.seed, chain_index).

    The proposal scale is tuned toward 25% acceptance during burn-in and
    frozen afterwards.  A post-burn-in acceptance rate outside [0.02, 0.98]
    raises, signalling a mis-tuned step.

    Proposals are scored in blocks (see the module docstring).  A block
    ends at each tuning boundary and at the end of burn-in, so the step
    size is constant within it.
    """
    if not 0 <= chain_index < cfg.n_chains:
        raise ValueError(f"chain_index {chain_index} outside 0..{cfg.n_chains - 1}.")
    stream = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains)[chain_index]
    rng = np.random.default_rng(stream)
    dim = params.ambient_dim

    state = rng.standard_normal(dim)
    if not np.any(state[:-1]):
        state[0] = 1.0  # keep MALA gradients defined
    step = cfg.step
    mala = cfg.algorithm == "mala"

    normals = rng.standard_normal((cfg.n_steps, dim))
    log_us = np.log(rng.random(cfg.n_steps))

    burn = cfg.burn_in
    kept = np.empty((cfg.n_steps - burn, dim))
    kept_logpi = np.empty(cfg.n_steps - burn)
    if mala:
        logpi, grad = _log_pi_grad_rows(spec, state[None, :])
        logpi, grad = logpi[0], grad[0]
    else:
        logpi = _log_pi_rows(spec, state[None, :])[0]

    accepted_window = 0
    accepted_main = 0
    i = 0
    while i < cfg.n_steps:
        end = min(i + _PREFETCH, cfg.n_steps)
        if i < burn:
            end = min(end, burn, (i // TUNE_INTERVAL + 1) * TUNE_INTERVAL)
        if mala:
            drift = state + 0.5 * step * step * grad
            props = drift + step * normals[i:end]
            live = np.any(props[:, :-1], axis=1)
            if not live.all():
                # a central-line proposal is rejected without being scored:
                # the block stops before it, or is that one step
                end = i + max(int(np.argmin(live)), 1)
                props = props[: end - i]
            if live[0]:
                prop_logpi, prop_grad = _log_pi_grad_rows(spec, props)
                back = props + 0.5 * step * step * prop_grad
                fwd_q = -np.sum((props - drift) ** 2, axis=1) / (2.0 * step * step)
                back_q = -np.sum((state - back) ** 2, axis=1) / (2.0 * step * step)
                log_ratio = prop_logpi - logpi + back_q - fwd_q
            else:
                log_ratio = np.array([-np.inf])
        else:
            props = state + step * normals[i:end]
            prop_logpi = _log_pi_rows(spec, props)
            log_ratio = prop_logpi - logpi

        accept = log_us[i:end] < log_ratio
        k = int(accept.argmax())  # the first acceptance, if there is one
        j = i + k if accept[k] else end
        if i >= burn:
            kept[i - burn : j - burn] = state
            kept_logpi[i - burn : j - burn] = logpi
        i = j
        if accept[k]:
            state = props[k]
            logpi = prop_logpi[k]
            if mala:
                grad = prop_grad[k]
            if i >= burn:
                accepted_main += 1
                kept[i - burn] = state
                kept_logpi[i - burn] = logpi
            else:
                accepted_window += 1
            i += 1

        if i <= burn and i % TUNE_INTERVAL == 0:
            rate = accepted_window / TUNE_INTERVAL
            step *= math.exp(0.5 * (rate - TARGET_ACCEPT))
            accepted_window = 0

    rate = accepted_main / (cfg.n_steps - burn)
    if not 0.02 <= rate <= 0.98:
        raise RuntimeError(
            f"Acceptance rate {rate:.3f} outside [0.02, 0.98]; step mis-tuned."
        )
    return SampleBatch(
        coords=kept,
        log_densities=kept_logpi,
        acceptance_rate=rate,
        chain_index=chain_index,
        step_final=step,
    )


def run_chains(spec: MeasureSpec, params: GroupParams, cfg: SamplerConfig) -> list[SampleBatch]:
    return [run_chain(spec, params, cfg, i) for i in range(cfg.n_chains)]


def batch_means_se(values: np.ndarray, n_batches: int = 50) -> float:
    """Batch-means standard error for a stationary chain functional."""
    values = np.asarray(values, dtype=float)
    if values.size < 2 * n_batches:
        raise ValueError(f"Need at least {2 * n_batches} values for {n_batches} batches.")
    usable = values.size - values.size % n_batches
    means = values[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(n_batches))
