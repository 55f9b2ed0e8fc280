"""Every pinned output: the digest tables, one digest and one producer per table.

A producer returns the pinned output of one key as named parts, in the byte
order its digest was recorded in; `digest` hashes the parts in that order.
The digest tests read their entries here, and `record_pins.py` runs the same
producers under two checkouts to report how far each output moved.  Producers
take no pytest fixtures and restore any module state they set.  The report
producers return (parts, exit status).

Re-recording is a hand edit of this file; no test ever writes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np

from hgauge import bgg, cli, inequalities, measures, norm


def digest(parts: dict) -> str:
    """sha256 prefix of the parts' bytes, in order."""
    h = hashlib.sha256()
    for part in parts.values():
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()[:32]


# -- kernel and clouds ---------------------------------------------------------

# sha256 prefixes of every PartialsBatch field (NaN canonicalised) on
# sample_cloud's box and radial rows, nine central-line rows and the identity:
# the kernel's own bytes, which the chain and report digests cover only
# through the samplers
PARTIALS_DIGESTS = {
    2: "e7c969e34740da15ff50ac1b023aa418",
    6: "3b025da40419ca39cce864eec1950d5a",
    10: "00f8a7cb2e4ebb5c17b259ebd50d581f",
}


def partials_parts(n: int) -> dict:
    """The nine PartialsBatch fields; row 2004 is the identity."""
    coords = inequalities.sample_cloud(n, 2000, seed=400 + n)  # 1500 box rows, 500 radial
    x = np.vstack([coords[:, :-1], np.zeros((9, 2 * n))])
    t = np.concatenate([coords[:, -1], np.linspace(-25.0, 25.0, 9)])  # t = 0 is the identity
    pb = norm.partials_batch(x, t)
    parts = {}
    for name in ("N", "A", "B", "R", "S", "pair_slope", "block_slope", "time_slope", "dN_dt"):
        field = getattr(pb, name)
        parts[name] = np.where(np.isnan(field), np.nan, field)
    return parts


# sha256 prefixes of sample_cloud over m in {1, 7, 500}, seeds {0, 20261017}
# and BOX in {5, 0.5}: the benchmark's cloud min_margin references rest on
# these bytes, so a change to the sampler must keep them.
CLOUD_DIGESTS = {
    2: "0d0026b43fd5ac33b5bf935ec005e182",
    6: "087464c567f3373c9cec099f856ae3cf",
    10: "3946f4495c6f746c78d58dad116612c8",
}


def cloud_parts(n: int) -> dict:
    parts, box0 = {}, inequalities.BOX
    try:
        for m in (1, 7, 500):
            for seed in (0, 20261017):
                for box in (5.0, 0.5):
                    inequalities.BOX = box
                    parts[f"m={m} seed={seed} box={box}"] = inequalities.sample_cloud(n, m, seed)
    finally:
        inequalities.BOX = box0
    return parts


# sha256 prefixes of shell_cloud over m in {1, 20, 100, 1000} and seeds
# {0, 33, 46, 20261017}, recorded from the sequential rejection sampler that
# the positional one replaced: none of these clouds rejects a row
SHELL_DIGESTS = {
    3: "f895c9c9709a21173a5c15eac88c65c4",
    6: "7b2671b2efcb8dcd994e517503ed93ea",
}


def shell_parts(n: int) -> dict:
    return {
        f"m={m} seed={seed}": inequalities.shell_cloud(n, m, seed)
        for m in (1, 20, 100, 1000)
        for seed in (0, 33, 46, 20261017)
    }


# sha256 prefixes of clouds whose rejected rows are redrawn in place:
# sample_cloud at n=2 with BOX=1e-3 (m=100003, seed 9), where the redraws come
# from a stream keyed by (seed, part origin, span start), and shell_cloud at
# n=2 (m=1000, seed 42)
REDRAW_DIGESTS = {
    "sample_cloud": "b044c55d928cc641dc2b5d8c97f91d0b",
    "shell_cloud": "b1c368ee04b9eb0e43c7d4976e4403a2",
}


def redraw_parts(sampler: str) -> dict:
    if sampler == "shell_cloud":
        return {"cloud": inequalities.shell_cloud(2, 1000, seed=42)}
    box0, inequalities.BOX = inequalities.BOX, 1e-3
    try:
        return {"cloud": inequalities.sample_cloud(2, 100_003, 9)}
    finally:
        inequalities.BOX = box0


# sha256 prefixes of compare_cloud's rows (x, then t) at criterion 01's
# points and seeds, recorded from the sequential rejection sampler that the
# positional one replaced: none of these clouds rejects a row
COMPARE_DIGESTS = {
    2: "eb3a8616709926a3eacf574dfbde47f8",
    3: "0f99f33ffcda0e15719629b086c86079",
    6: "3d6d30adc159982734c1f6f32390e1e9",
    8: "fecbd3abab63648d89d9fd39e960fda4",
}


def compare_parts(n: int) -> dict:
    """The x of every ab_batch call and the t of every order-n _re_rows call, in call order."""
    parts, ab, rows = {}, bgg.ab_batch, bgg._re_rows

    def ab_spy(x):
        parts[f"{len(parts)} x"] = x.copy()
        return ab(x)

    def rows_spy(a, b, t, k):
        if k == n:
            parts[f"{len(parts)} t"] = t.copy()
        return rows(a, b, t, k)

    bgg.ab_batch, bgg._re_rows = ab_spy, rows_spy
    try:
        bgg.compare_cloud(n, 200, seed=1000 + n)
    finally:
        bgg.ab_batch, bgg._re_rows = ab, rows
    return parts


# -- chains --------------------------------------------------------------------

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
CHAIN_SPECS = {
    "power": {"k": 4.0},
    "power-log": {"k": 3.0},
    "cosh-power": {"k": 2.0},
    "alpha-power": {"alpha": 1.0, "p": 4.0},
}


def chain_parts(key: tuple) -> dict:
    """Chains 0 and 1, each through the module-level measures.run_chain."""
    algorithm, family, n = key
    cfg = measures.SamplerConfig(
        n_steps=3000,
        burn_in=1037,
        step=0.25 if algorithm == "rwm" else 0.1,
        seed=3,
        algorithm=algorithm,
    )
    spec = measures.MeasureSpec(family=family, **CHAIN_SPECS[family])
    parts = {}
    for i in range(2):
        b = measures.run_chain(spec, n, cfg, i)
        parts[f"chain {i} coords"] = b.coords
        parts[f"chain {i} log_densities"] = b.log_densities
        parts[f"chain {i} acceptance"] = np.float64(b.acceptance_rate)
        parts[f"chain {i} step_final"] = np.float64(b.step_final)
    return parts


# -- reports -------------------------------------------------------------------

# sha256 prefixes of `verify` reports on 3000-step n=6 chains (seed 3, burn
# 500): terms, anchor and fit are pinned byte for byte
VERIFY_REPORTS = {
    "98b348ef77c442c62ffacbc4bc3b583a": "ubound --family cosh-power --k 1",
    "32ac15a57ea61b571a475d2b12750225": "ubound --family power --k 4 --q 3 --restrict-exterior",
    "391371df877c5f5d9909cee144b034cf": "lsi --family alpha-power --alpha 1 --p 4 --beta 0.25",
}


def _report(argv: list[str]) -> tuple[dict, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return {"report": out.getvalue().encode()}, status


def verify_report(key: str) -> tuple[dict, int]:
    argv = ["--no-timestamp", "verify", *VERIFY_REPORTS[key].split(), "--n", "6", "--seed", "3"]
    return _report(argv + ["--steps", "3000", "--burn", "500"])


# sha256 prefixes of `check infinity-harmonic` reports and their exit
# status: the exact value, rounding ratio and verdict are pinned byte for byte
INFINITY_REPORTS = {
    "4933f7f7985f4a32ddb160fb48612a3b": ("--n 2", 0),
    "4b062d574db0d40841122550b5288dbf": ("--n 3", 0),
    "d72d19fb794df9fcfe43c2c047612a0b": ("--n 6", 0),
    "d753af64b284021f5174f3f40c81467f": ("--n 2 --x 1,0,1,0 --t 0", 1),
}


def infinity_report(key: str) -> tuple[dict, int]:
    return _report(["--no-timestamp", "check", "infinity-harmonic", *INFINITY_REPORTS[key][0].split()])


# table name -> (table, producer, how record_pins.py compares two outputs):
# "kernel" by ulps per part, "chain" as moved or unchanged, "report" by JSON path
TABLES = {
    "PARTIALS_DIGESTS": (PARTIALS_DIGESTS, partials_parts, "kernel"),
    "CLOUD_DIGESTS": (CLOUD_DIGESTS, cloud_parts, "kernel"),
    "SHELL_DIGESTS": (SHELL_DIGESTS, shell_parts, "kernel"),
    "REDRAW_DIGESTS": (REDRAW_DIGESTS, redraw_parts, "kernel"),
    "COMPARE_DIGESTS": (COMPARE_DIGESTS, compare_parts, "kernel"),
    "CHAIN_DIGESTS": (CHAIN_DIGESTS, chain_parts, "chain"),
    "VERIFY_REPORTS": (VERIFY_REPORTS, verify_report, "report"),
    "INFINITY_REPORTS": (INFINITY_REPORTS, infinity_report, "report"),
}
