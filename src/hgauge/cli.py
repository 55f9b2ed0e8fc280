"""Command-line front end: reproducible verification runs, JSON reports.

Subcommands:

    norm eval               gauge value and exact derivatives at one point
    check lemma2            gradient bounds over a seeded cloud
    check intermediate      per-coordinate slope bounds over a seeded cloud
    check fundamental       exact harmonicity residual of N^(2-Q) vs rounding
    check infinity-harmonic exact infinity-Laplacian of N vs rounding
    check constants         coercivity margins and exact stationarity over a range of n
    bgg compare             quadrature vs closed-form fundamental solution,
                            and the n = 2 integral identities behind it
    measure sample          run a chain, dump CSV samples
    verify ubound|poincare|lsi   empirical functional inequalities

Reports embed the full run configuration; identical configurations give
byte-identical reports once --no-timestamp is passed.  The numerical
settings are fixed, not flags, so a pass means the same on every run: the
quadrature tolerance bgg.REL_TOL, the bgg compare gate BGG_GATE, the
bound tolerance inequalities.TOLERANCE, and the rounding gate
norm.ROUNDING_GATE, on which check fundamental, check constants and check
infinity-harmonic each report a rounding_ratio in eps sum |terms|.
Reports are strict JSON.
Exit status: 0 all checks passed or no verdict (measure sample, verify
poincare), 1 a check failed, 2 invalid configuration (an output path that
cannot be written, --output and --out naming one file, a measure
parameter the family does not read, and --n, --points, --chains or --seed
below its floor, included), 3 numerical breakdown (a mis-tuned chain, a
quadrature that did not converge, a verify sample on which E|f|^q or
E|grad f|^q of a test function is 0 or a mean overflows, a verify ubound
--restrict-exterior sample with no row at N >= 1, a report that holds a
non-finite number).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import bgg, coercive, fd, inequalities, measures, norm
from .group import Point, _check_n
from .norm import ROUNDING_GATE, exact_partials

__all__ = ["RunConfig", "build_parser", "run", "main"]

SCHEMA_VERSION = 2
# bgg compare passes when max_rel_err and each n = 2 identity are at most this
BGG_GATE = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; no hidden global state."""

    command: str
    options: dict
    output_path: Optional[str]
    timestamp: bool
    threads: Optional[int]  # None: one pool thread per CPU, not recorded


def _parse_xlist(text: str, expected: int) -> np.ndarray:
    """Comma- or space-separated floats; an empty comma field is invalid."""
    vals = [float(v) for v in (text.split(",") if "," in text else text.split())]
    if len(vals) != expected:
        raise ValueError(f"Expected {expected} horizontal coordinates, got {len(vals)}.")
    return np.asarray(vals)


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    a, b = int(lo), int(hi)
    if b < a:
        raise ValueError(f"Empty range {text!r}.")
    return a, b


def _measure_spec(opts: dict) -> measures.MeasureSpec:
    # an unset flag is not in opts
    names = ("family", "k", "alpha", "p")
    return measures.MeasureSpec(**{name: opts[name] for name in names if name in opts})


# batch_means_se splits the kept steps into batches of at least two
_MIN_KEPT = 2 * measures.N_BATCHES


def _sampler_config(opts: dict, **settings) -> measures.SamplerConfig:
    """Sampler settings shared by `measure sample` and `verify`."""
    kept = opts["steps"] - opts["burn"]
    if kept < _MIN_KEPT:
        raise ValueError(f"Need --steps - --burn >= {_MIN_KEPT} kept steps, got {kept}.")
    return measures.SamplerConfig(
        n_steps=opts["steps"], burn_in=opts["burn"], step=opts["step"], seed=opts["seed"], **settings
    )


# -- command bodies -----------------------------------------------------------


def _cmd_norm_eval(cfg: RunConfig) -> tuple[dict, Optional[bool]]:
    o = cfg.options
    p = Point(_parse_xlist(o["x"], 2 * o["n"]), o["t"])
    if p.t == 0 and not np.any(p.x):  # the identity has no derivatives
        return {"N": 0.0}, None
    # exact at unit scale; each output is carried back by its degree under the dilations
    k, unit = norm._unit_scale(p)
    pb = exact_partials(unit)
    return {
        "N": float(np.ldexp(pb.N, k)),
        "A": float(np.ldexp(pb.A, 2 * k)),
        "B": float(np.ldexp(pb.B, 2 * k)),
        "dN_dx": [float(v) for v in pb.dN_dx],
        "dN_dt": float(np.ldexp(pb.dN_dt, -k)),
        "grad_norm_sq": float(pb.grad_sq),
        "x_dot_grad": float(np.ldexp(pb.x_dot, k)),
    }, None


def _cmd_check_cloud(cfg: RunConfig, which: str) -> tuple[dict, bool]:
    o = cfg.options
    fn = (
        inequalities.check_gradient_bounds
        if which == "lemma2"
        else inequalities.check_partial_bounds
    )
    reports = fn(o["n"], o["points"], o["seed"], threads=cfg.threads)
    return {"reports": [r.as_dict() for r in reports]}, all(r.passed for r in reports)


def _cmd_check_fundamental(cfg: RunConfig) -> tuple[dict, bool]:
    """Exact harmonicity residual of N^(2-Q) on inequalities.shell_cloud (|x| >= 1/2)."""
    o = cfg.options
    coords = inequalities.shell_cloud(o["n"], o["points"], o["seed"])
    # the exponent 2 - Q of the fundamental solution, Q = 2n + 2
    residual, scale = norm._harmonicity_residual(coords[:, :-1], coords[:, -1], -2 * o["n"])
    ratio = norm._rounding_ratio(residual, scale)
    return {
        "points": o["points"],
        "max_abs_residual": float(np.max(np.abs(residual))),
        "rounding_ratio": float(np.max(ratio)),
        "rounding_gate": ROUNDING_GATE,
    }, bool(np.all(ratio <= ROUNDING_GATE))


def _cmd_check_infinity(cfg: RunConfig) -> tuple[dict, bool]:
    o = cfg.options
    if o.get("x") is not None:
        x = _parse_xlist(o["x"], 2 * o["n"])
    else:
        x = np.zeros(2 * o["n"])
        x[0] = 1.0
        x[1] = 1.0
    p = Point(x, o["t"])
    value, ratio = fd.infinity_laplacian_witness(p)
    return {
        "point": [float(v) for v in p.coords()],
        "value": value,
        "rounding_ratio": ratio,
        "rounding_gate": ROUNDING_GATE,
    }, ratio > ROUNDING_GATE


def _cmd_check_constants(cfg: RunConfig) -> tuple[dict, bool]:
    o = cfg.options
    lo, hi = _parse_range(o["n_range"])
    table = []
    ok = True
    for n in range(lo, hi + 1):
        margin = inequalities.coercivity_margin(n)
        a = inequalities.alpha_opt(n)
        slope, scale = inequalities._split_slope(a, n)
        ratio = float(norm._rounding_ratio(slope, scale))
        sign_ok = margin < 0 if n <= 5 else margin > 0
        ok = ok and sign_ok and ratio <= ROUNDING_GATE
        table.append(
            dict(n=n, margin=margin, alpha_opt=a, stationarity=slope, rounding_ratio=ratio, sign_expected=sign_ok)
        )
    return {"table": table, "rounding_gate": ROUNDING_GATE}, ok


def _cmd_bgg_compare(cfg: RunConfig) -> tuple[dict, bool]:
    o = cfg.options
    summary = bgg.compare_cloud(o["n"], o["points"], o["seed"])
    errors = [summary["max_rel_err"], *summary["identities"].values()]
    passed = all(err <= BGG_GATE for err in errors)
    summary["pass_threshold"] = BGG_GATE
    return summary, passed


def _write_csv_rows(fh, rows: np.ndarray) -> None:
    """Write float rows as CSV lines, formatting each run of equal rows once.

    Rows are compared bit for bit, so 0.0 and -0.0 stay apart and a repeated
    NaN row is one run.  repr gives the bytes csv.writer gives, and every
    value reads back exactly.
    """
    bits = rows.view(np.uint64)
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(rows))
    for row, count in zip(rows[starts].tolist(), counts.tolist()):
        fh.writelines([",".join(map(repr, row)) + "\r\n"] * count)


def _cmd_measure_sample(cfg: RunConfig) -> tuple[dict, Optional[bool]]:
    o = cfg.options
    spec = _measure_spec(o)
    scfg = _sampler_config(o, algorithm=o["algorithm"])
    out_path = o.get("out")
    # looked up per call, so a wrapper of measures.run_chain sees every chain
    batches = [measures.run_chain(spec, o["n"], scfg, i) for i in range(o["chains"])]
    if out_path:
        with open(out_path, "w", newline="") as fh:
            header = [f"x_{j}" for j in range(1, 2 * o["n"] + 1)] + ["t", "logdens"]
            fh.write(",".join(header) + "\r\n")
            for b in batches:
                _write_csv_rows(fh, np.column_stack([b.coords, b.log_densities]))
    summary = {
        "family": spec.label(),
        "chains": [
            {
                "chain_index": b.chain_index,
                "samples": int(b.coords.shape[0]),
                "acceptance_rate": b.acceptance_rate,
                "step_final": b.step_final,
                "mean_norm": float(np.mean(b.gauge)),
                "se_norm": measures.batch_means_se(b.gauge),
            }
            for b in batches
        ],
        "csv": out_path,
    }
    return summary, None


def _cmd_verify(cfg: RunConfig, which: str) -> tuple[dict, Optional[bool]]:
    o = cfg.options
    spec = _measure_spec(o)
    q = o["q"]
    coercive._check_q(q)  # bad exponents fail before the chain runs
    scfg = _sampler_config(o)
    if which == "lsi":
        coercive._check_beta(spec, o.get("beta"))
    batch = measures.run_chain(spec, o["n"], scfg, 0)
    family = coercive.default_family(o["n"])
    base = {
        "family": spec.label(),
        "q": q,
        "samples": int(batch.coords.shape[0]),
        "acceptance_rate": batch.acceptance_rate,
    }
    if which == "poincare":  # no verdict: the ratios are reported, not tested
        base["ratios"] = []
        for f in family[1:]:
            ratio, se = coercive.poincare_ratio(f, batch, q)
            base["ratios"].append({"name": f.name, "ratio": ratio, "se": se})
        return base, None
    if which == "ubound":
        terms, result = coercive.fit_ubound_constants(family, batch, q, o["restrict_exterior"])
        base["terms"] = [asdict(t) for t in terms]
    else:
        result = coercive.fit_beta_lsi(family, batch, q, o["beta"])
    base["fit"] = result.as_dict()
    return base, result.feasible


# -- wiring -------------------------------------------------------------------


@functools.cache  # one parser per process; callers must not modify it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hgauge",
        description="Verification toolkit for the anisotropic Heisenberg gauge.",
    )
    ap.add_argument("--output", help="write the report to this path instead of stdout")
    ap.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")
    ap.add_argument(
        "--threads", type=int, default=None, help="worker threads of check lemma2|intermediate, at most one per CPU"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="gauge evaluation")
    norm_sub = p_norm.add_subparsers(dest="subcommand", required=True)
    pe = norm_sub.add_parser("eval", help="evaluate N and derivatives at a point")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--x", required=True, help="comma- or space-separated horizontal coords")
    pe.add_argument("--t", type=float, default=0.0)

    p_check = sub.add_parser("check", help="pointwise bound suites")
    check_sub = p_check.add_subparsers(dest="subcommand", required=True)
    for name in ("lemma2", "intermediate"):
        pc = check_sub.add_parser(name)
        pc.add_argument("--n", type=int, required=True)
        pc.add_argument("--points", type=int, default=100_000)
        pc.add_argument("--seed", type=int, required=True)
    pf = check_sub.add_parser("fundamental")
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--points", type=int, default=100)
    pf.add_argument("--seed", type=int, required=True)
    pi = check_sub.add_parser("infinity-harmonic")
    pi.add_argument("--n", type=int, default=2)
    pi.add_argument("--x", default=None)
    pi.add_argument("--t", type=float, default=0.3)
    pk = check_sub.add_parser("constants")
    pk.add_argument("--n-range", dest="n_range", default="2..20")

    p_bgg = sub.add_parser("bgg", help="fundamental-solution oracle")
    bgg_sub = p_bgg.add_subparsers(dest="subcommand", required=True)
    pb = bgg_sub.add_parser("compare")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--points", type=int, default=200)
    pb.add_argument("--seed", type=int, required=True)

    p_meas = sub.add_parser("measure", help="measure families and samplers")
    meas_sub = p_meas.add_subparsers(dest="subcommand", required=True)
    pm = meas_sub.add_parser("sample")
    _add_measure_flags(pm)
    pm.add_argument("--out", help="CSV path for the samples")
    pm.add_argument("--chains", type=int, default=1)
    pm.add_argument(
        "--algorithm", choices=measures.ALGORITHMS, default=measures.SamplerConfig.algorithm
    )

    p_verify = sub.add_parser("verify", help="functional-inequality verification")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    for name in ("ubound", "poincare", "lsi"):
        pv = verify_sub.add_parser(name)
        _add_measure_flags(pv)
        pv.add_argument("--q", type=float, default=2.0)
        if name == "ubound":
            pv.add_argument("--restrict-exterior", dest="restrict_exterior", action="store_true")
        elif name == "lsi":
            pv.add_argument("--beta", type=float)
    return ap


def _add_measure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=measures.FAMILIES, required=True)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=measures.SamplerConfig.n_steps)
    p.add_argument("--burn", type=int, default=measures.SamplerConfig.burn_in)
    p.add_argument("--step", type=float, default=measures.SamplerConfig.step)


_DISPATCH = {
    ("norm", "eval"): _cmd_norm_eval,
    ("check", "lemma2"): lambda c: _cmd_check_cloud(c, "lemma2"),
    ("check", "intermediate"): lambda c: _cmd_check_cloud(c, "intermediate"),
    ("check", "fundamental"): _cmd_check_fundamental,
    ("check", "infinity-harmonic"): _cmd_check_infinity,
    ("check", "constants"): _cmd_check_constants,
    ("bgg", "compare"): _cmd_bgg_compare,
    ("measure", "sample"): _cmd_measure_sample,
    ("verify", "ubound"): lambda c: _cmd_verify(c, "ubound"),
    ("verify", "poincare"): lambda c: _cmd_verify(c, "poincare"),
    ("verify", "lsi"): lambda c: _cmd_verify(c, "lsi"),
}
# the commands whose checks run on a thread pool, the only ones --threads sets
_POOLED = {("check", "lemma2"), ("check", "intermediate")}
# the least value of each integer flag, checked with --n before any work
_FLOORS = {"points": 1, "chains": 1, "seed": 0}


def config_from_args(argv: Optional[list[str]] = None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    d = vars(ns).copy()
    command = f"{d.pop('command')} {d.pop('subcommand')}"
    output = d.pop("output")
    timestamp = not d.pop("no_timestamp")
    threads = d.pop("threads")
    options = {k: v for k, v in d.items() if v is not None}
    return RunConfig(
        command=command,
        options=options,
        output_path=output,
        timestamp=timestamp,
        threads=threads,
    )


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one configured run; returns (exit_status, report)."""
    key = tuple(cfg.command.split(" ", 1))
    if key not in _DISPATCH:
        raise ValueError(f"Unknown command {cfg.command!r}.")
    if cfg.threads is not None and key not in _POOLED:
        raise ValueError(f"--threads applies only to check lemma2|intermediate, not {cfg.command}.")
    if cfg.threads is not None and cfg.threads < 1:
        raise ValueError(f"Need --threads >= 1, got {cfg.threads}.")
    if "n" in cfg.options:
        _check_n(cfg.options["n"])
    for flag, least in _FLOORS.items():
        if cfg.options.get(flag, least) < least:
            raise ValueError(f"Need --{flag} >= {least}, got {cfg.options[flag]}.")
    results, passed = _DISPATCH[key](cfg)
    config = {
        "command": cfg.command,
        "options": dict(sorted(cfg.options.items())),
        "output_path": cfg.output_path,
        "format": "json",
    }
    if cfg.threads is not None:
        config["threads"] = cfg.threads
    report = {
        "schema": SCHEMA_VERSION,
        "command": cfg.command,
        "config": config,
        "results": results,
        "pass": passed,
    }
    if cfg.timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    status = 0 if passed is None or passed else 1
    return status, report


def _strict_json(report: dict) -> str:
    """The report as JSON; a NaN or infinity in it is a numerical breakdown."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"The report holds a non-finite number ({exc}).") from None


def main(argv: Optional[list[str]] = None) -> int:
    try:
        cfg = config_from_args(argv)
    except SystemExit as exc:  # argparse already printed a message
        return int(exc.code or 0)
    made = []  # the files this run created; a run that fails removes these and no other
    try:
        out = cfg.options.get("out")
        if cfg.output_path and out and os.path.realpath(cfg.output_path) == os.path.realpath(out):
            raise ValueError(f"--output and --out name the same file, {out!r}.")
        # each output path is opened before the run, so an unwritable one fails at once;
        # append mode leaves an existing file's bytes alone until the run writes it
        for path in (cfg.output_path, out):
            if path:
                existed = os.path.exists(path)
                open(path, "a").close()
                if not existed:
                    made.append(path)
        status, report = run(cfg)
        text = _strict_json(report)
        if cfg.output_path:
            with open(cfg.output_path, "w") as fh:
                fh.write(text + "\n")
        made.clear()
    except (ValueError, RuntimeError, OSError) as exc:
        # RuntimeError: a mis-tuned chain, an unconverged quadrature, a test
        # function with E|f|^q or E|grad f|^q = 0 or an overflowed mean, an
        # exterior fit with no exterior sample, or a non-finite report;
        # OSError: an unwritable --output or --out path
        numerical = isinstance(exc, RuntimeError)
        err = {
            "schema": SCHEMA_VERSION,
            "error": str(exc),
            "kind": "numerical" if numerical else "invalid",
        }
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 3 if numerical else 2
    finally:
        for path in made:
            os.remove(path)
    if not cfg.output_path:
        print(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
