"""Shared fixtures: heavy chains are sampled once per session.

Acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal-summary hook prints the whole table at the end of the run so a
single look at the output shows every criterion's verdict.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hgauge.group import Point
from hgauge.measures import MeasureSpec, SamplerConfig, run_chain
from hgauge.norm import norm_batch

ACCEPTANCE_LINES: list[str] = []


def record_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


# the first-difference step of the fd_gradient cross-checks
FD_STEP = 1e-6


def dilate(lam: float, p: Point) -> Point:
    """The dilation delta_lam(x, t) = (lam x, lam^2 t)."""
    return Point(lam * p.x, lam * lam * p.t)


def norm_field(coords: np.ndarray) -> np.ndarray:
    """N on (m, 2n+1) coordinate rows, the form the stencils of reference take."""
    coords = np.asarray(coords, dtype=float)
    return norm_batch(coords[..., :-1], coords[..., -1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


CHAIN_N = 6  # the layer parameter n of every session chain
POWER4 = MeasureSpec(family="power", k=4.0)
LONG_CFG = SamplerConfig(n_steps=110_000, burn_in=10_000, step=0.25, seed=11)


@pytest.fixture(scope="session")
def power4_chains():
    """Two independent long chains for the power(k=4) measure, n=6."""
    return [run_chain(POWER4, CHAIN_N, LONG_CFG, i) for i in range(2)]


@pytest.fixture(scope="session")
def family_chains():
    """One long chain per measure family used by the feasibility checks."""
    specs = {
        "cosh1": MeasureSpec(family="cosh-power", k=1.0),
        "cosh2": MeasureSpec(family="cosh-power", k=2.0),
        "plog3": MeasureSpec(family="power-log", k=3.0),
    }
    cfg = dataclasses.replace(LONG_CFG, seed=12)
    return {name: run_chain(spec, CHAIN_N, cfg, 0) for name, spec in specs.items()}


@pytest.fixture(scope="session")
def alpha_chain():
    spec = MeasureSpec(family="alpha-power", alpha=1.0, p=4.0)
    cfg = dataclasses.replace(LONG_CFG, seed=13)
    return run_chain(spec, CHAIN_N, cfg, 0)


@pytest.fixture(scope="session")
def stability_chains():
    """Five seeds of the power(k=4) chain for ratio-stability checks."""
    out = []
    for seed in (101, 102, 103, 104, 105):
        cfg = dataclasses.replace(LONG_CFG, seed=seed)
        out.append(run_chain(POWER4, CHAIN_N, cfg, 0))
    return out
