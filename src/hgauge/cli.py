"""Command-line front end: reproducible verification runs, JSON reports.

Subcommands:

    norm eval               gauge value and exact derivatives at one point
    check lemma2            gradient bounds over a seeded cloud
    check intermediate      per-coordinate slope bounds over a seeded cloud
    check fundamental       FD harmonicity of N^(2-Q) vs truncation + roundoff
    check infinity-harmonic infinity-Laplacian witness vs FD noise floor
    check constants         coercivity margins and stationarity over a range of n
    bgg compare             quadrature vs closed-form fundamental solution
    measure sample          run a chain, dump CSV samples
    verify ubound|poincare|lsi   empirical functional inequalities

Reports embed the full run configuration; identical configurations give
byte-identical reports once --no-timestamp is passed.  Reports are strict
JSON.  Exit status: 0 all checks passed, 1 a check failed, 2 invalid
configuration (an output path that cannot be written included), 3 numerical
breakdown (a mis-tuned chain, a quadrature that did not converge, a report
that holds a non-finite number).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import bgg, coercive, fd, inequalities, measures
from .group import GroupParams, Point
from .norm import exact_partials, norm_N

__all__ = ["RunConfig", "build_parser", "run", "main"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; no hidden global state."""

    command: str
    options: dict = field(default_factory=dict)
    output_path: Optional[str] = None
    timestamp: bool = True
    threads: Optional[int] = None  # None: one pool thread per CPU, not recorded


def _parse_xlist(text: str, expected: int) -> np.ndarray:
    vals = [float(v) for v in text.replace(",", " ").split()]
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
    return measures.MeasureSpec(
        family=opts["family"],
        k=opts.get("k"),
        alpha=opts.get("alpha"),
        p=opts.get("p"),
        beta=opts.get("beta"),
        q=opts["q"],
    )


# batch_means_se splits the kept steps into 50 batches of at least two
_MIN_KEPT = 100


def _sampler_config(opts: dict, **chains) -> measures.SamplerConfig:
    """Sampler settings shared by `measure sample` and `verify`."""
    kept = opts["steps"] - opts["burn"]
    if kept < _MIN_KEPT:
        raise ValueError(f"Need --steps - --burn >= {_MIN_KEPT} kept steps, got {kept}.")
    return measures.SamplerConfig(
        n_steps=opts["steps"], burn_in=opts["burn"], step=opts["step"], seed=opts["seed"], **chains
    )


# -- command bodies -----------------------------------------------------------


def _cmd_norm_eval(cfg: RunConfig) -> tuple[dict, Optional[bool]]:
    o = cfg.options
    params = GroupParams(o["n"])
    x = _parse_xlist(o["x"], params.horizontal_dim)
    p = Point(x, o["t"])
    out = {"N": norm_N(p, params)}
    if np.any(x):
        ev = exact_partials(p, params)
        out.update(
            A=ev.A,
            B=ev.B,
            dN_dx=[float(v) for v in ev.dN_dx],
            dN_dt=ev.dN_dt,
            grad_norm_sq=ev.grad_norm_sq,
            x_dot_grad=ev.x_dot_grad,
        )
    return out, None


def _cmd_check_cloud(cfg: RunConfig, which: str) -> tuple[dict, bool]:
    o = cfg.options
    params = GroupParams(o["n"])
    fn = (
        inequalities.check_gradient_bounds
        if which == "lemma2"
        else inequalities.check_partial_bounds
    )
    reports = fn(
        params,
        o["points"],
        o["seed"],
        box=o["box"],
        tolerance=o["tolerance"],
        threads=cfg.threads if cfg.threads is not None else os.cpu_count(),
    )
    return {"reports": [r.as_dict() for r in reports]}, all(r.passed for r in reports)


def _cmd_check_fundamental(cfg: RunConfig) -> tuple[dict, bool]:
    """FD harmonicity of N^(2-Q) on inequalities.shell_cloud (1/2 < N < 5)."""
    o = cfg.options
    params = GroupParams(o["n"])
    coords = inequalities.shell_cloud(params, o["points"], o["seed"])
    h = o["h_base"]
    check = fd.harmonicity_check(coords, params, h)
    return {
        "points": o["points"],
        "h_base": h,
        "max_abs_residual": float(np.max(np.abs(check.residual))),
        "mean_abs_residual": float(np.mean(np.abs(check.residual))),
        "mean_truncation_estimate": float(np.mean(check.estimate)),
        "mean_roundoff_floor": float(np.mean(check.floor)),
        "bounded_by_truncation": check.passed,
    }, check.passed


def _cmd_check_infinity(cfg: RunConfig) -> tuple[dict, bool]:
    o = cfg.options
    params = GroupParams(o["n"])
    if o.get("x") is not None:
        x = _parse_xlist(o["x"], params.horizontal_dim)
    else:
        x = np.zeros(params.horizontal_dim)
        x[0] = 1.0
        x[1] = 1.0
    p = Point(x, o["t"])
    value, floor = fd.infinity_laplacian_witness(p, params, fd.FdConfig())
    ratio = abs(value) / floor if floor > 0 else float("inf")
    passed = bool(ratio > 10.0)
    return {
        "point": [float(v) for v in p.coords()],
        "value": value,
        "noise_floor": floor,
        "ratio": ratio,
        "nonzero_beyond_noise": passed,
    }, passed


def _cmd_check_constants(cfg: RunConfig) -> tuple[dict, bool]:
    o = cfg.options
    lo, hi = _parse_range(o["n_range"])
    if lo < 2:
        raise ValueError("Constant arithmetic needs n >= 2.")
    table = []
    ok = True
    for n in range(lo, hi + 1):
        margin = inequalities.coercivity_margin(n)
        a = inequalities.alpha_opt(n)
        h = 1e-5 * a
        f_plus = inequalities.split_objective(a + h, n)
        f_minus = inequalities.split_objective(a - h, n)
        stat = abs(f_plus - f_minus) / (2 * h)
        # rounding in f(a +- h) alone can reach eps (|f(a+h)| + |f(a-h)|) / (2h)
        floor = sys.float_info.epsilon * (abs(f_plus) + abs(f_minus)) / (2 * h)
        sign_ok = margin < 0 if n <= 5 else margin > 0
        ok = ok and sign_ok and stat <= 1e-10 + floor
        table.append(
            {
                "n": n,
                "margin": margin,
                "alpha_opt": a,
                "stationarity_fd": stat,
                "stationarity_floor": floor,
                "sign_expected": sign_ok,
            }
        )
    return {"table": table}, ok


def _cmd_bgg_compare(cfg: RunConfig) -> tuple[dict, bool]:
    o = cfg.options
    if not math.isfinite(o["max_rel_err"]):
        raise ValueError(f"Need a finite --max-rel-err, got {o['max_rel_err']}.")
    params = GroupParams(o["n"])
    qcfg = bgg.QuadratureConfig(rel_tol=o["rel_tol"])
    summary = bgg.compare_cloud(params, o["points"], o["seed"], qcfg)
    passed = bool(summary["max_rel_err"] <= o["max_rel_err"])
    summary["pass_threshold"] = o["max_rel_err"]
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
    params = GroupParams(o["n"])
    spec = _measure_spec(o)
    scfg = _sampler_config(o, n_chains=o["chains"], algorithm=o["algorithm"])
    out_path = o.get("out")
    # opened before any chain runs, so an unwritable path fails at once
    fh = open(out_path, "w", newline="") if out_path else contextlib.nullcontext()
    try:
        with fh:
            batches = measures.run_chains(spec, params, scfg)
            if out_path:
                header = [f"x_{j}" for j in range(1, params.horizontal_dim + 1)] + ["t", "logdens"]
                fh.write(",".join(header) + "\r\n")
                for b in batches:
                    _write_csv_rows(fh, np.column_stack([b.coords, b.log_densities]))
    except BaseException:
        if out_path:
            os.remove(out_path)  # a failed run leaves no CSV behind
        raise
    summary = {
        "family": spec.label(),
        "chains": [
            {
                "chain_index": b.chain_index,
                "samples": int(b.coords.shape[0]),
                "acceptance_rate": b.acceptance_rate,
                "step_final": b.step_final,
                "mean_norm": float(np.mean(b.norms())),
                "se_norm": measures.batch_means_se(b.norms()),
            }
            for b in batches
        ],
        "csv": out_path,
    }
    return summary, None


def _cmd_verify(cfg: RunConfig, which: str) -> tuple[dict, bool]:
    o = cfg.options
    params = GroupParams(o["n"])
    spec = _measure_spec(o)
    batch = measures.run_chain(spec, params, _sampler_config(o), 0)
    family = coercive.default_family(params)
    base = {
        "family": spec.label(),
        "q": spec.q,
        "samples": int(batch.coords.shape[0]),
        "acceptance_rate": batch.acceptance_rate,
    }
    if which == "poincare":
        ratios = []
        ok = True
        for f in family[1:]:
            ratio, se = coercive.poincare_ratio(f, spec, batch)
            finite = bool(np.isfinite(ratio))
            ok = ok and finite
            ratios.append({"name": f.name, "ratio": ratio, "se": se, "finite": finite})
        base["ratios"] = ratios
        return base, ok
    if which == "ubound":
        terms, result = coercive.fit_ubound_constants(
            family, spec, batch, restrict_exterior=o["restrict_exterior"]
        )
        base["terms"] = [asdict(t) for t in terms]
    else:
        result = coercive.fit_beta_lsi(family, spec, batch)
    base["fit"] = result.as_dict()
    return base, bool(result.feasible and result.max_violation <= 0.0)


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
        "--threads", type=int, default=None, help="worker threads for cloud checks, at most one per CPU"
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
        pc.add_argument("--box", type=float, default=5.0)
        pc.add_argument("--tolerance", type=float, default=inequalities.DEFAULT_TOLERANCE)
    pf = check_sub.add_parser("fundamental")
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--points", type=int, default=100)
    pf.add_argument("--seed", type=int, required=True)
    pf.add_argument("--h-base", dest="h_base", type=float, default=1.6e-3)
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
    pb.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-11)
    pb.add_argument("--max-rel-err", dest="max_rel_err", type=float, default=1e-8)

    p_meas = sub.add_parser("measure", help="measure families and samplers")
    meas_sub = p_meas.add_subparsers(dest="subcommand", required=True)
    pm = meas_sub.add_parser("sample")
    _add_measure_flags(pm)
    pm.add_argument("--out", help="CSV path for the samples")
    pm.add_argument("--chains", type=int, default=1)
    pm.add_argument("--algorithm", choices=("rwm", "mala"), default="rwm")

    p_verify = sub.add_parser("verify", help="functional-inequality verification")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    for name in ("ubound", "poincare", "lsi"):
        pv = verify_sub.add_parser(name)
        _add_measure_flags(pv)
        if name == "ubound":
            pv.add_argument("--restrict-exterior", dest="restrict_exterior", action="store_true")
    return ap


def _add_measure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=measures.FAMILIES, required=True)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=110_000)
    p.add_argument("--burn", type=int, default=10_000)
    p.add_argument("--step", type=float, default=0.25)


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
    if cfg.threads is not None and cfg.threads < 1:
        raise ValueError(f"Need --threads >= 1, got {cfg.threads}.")
    if cfg.options.get("points", 1) < 1:
        raise ValueError(f"Need --points >= 1, got {cfg.options['points']}.")
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
    csv_path = None
    try:
        status, report = run(cfg)
        csv_path = cfg.options.get("out")
        text = _strict_json(report)
        if cfg.output_path:
            with open(cfg.output_path, "w") as fh:
                fh.write(text + "\n")
    except (ValueError, RuntimeError, OSError) as exc:
        # RuntimeError: a mis-tuned chain, a quadrature that did not converge
        # or a non-finite report; OSError: an --output or --out path that
        # cannot be written
        if csv_path:
            os.remove(csv_path)  # the run wrote its CSV before the report failed
        numerical = isinstance(exc, RuntimeError)
        err = {
            "schema": SCHEMA_VERSION,
            "error": str(exc),
            "kind": "numerical" if numerical else "invalid",
        }
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 3 if numerical else 2
    if not cfg.output_path:
        print(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
