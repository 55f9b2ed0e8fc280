import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pins

import hgauge
from hgauge import inequalities, measures, norm
from hgauge.cli import ROUNDING_GATE, RunConfig, _write_csv_rows, build_parser, config_from_args, main, run
from hgauge.group import GroupParams


def _run_json(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


def test_norm_eval_report(capsys):
    status, report = _run_json(
        capsys, ["--no-timestamp", "norm", "eval", "--n", "2", "--x", "1,0,0,0"]
    )
    assert status == 0
    assert report["schema"] == 1
    assert report["command"] == "norm eval"
    assert report["pass"] is None
    assert report["results"]["N"] == pytest.approx(2.0 ** -0.75)
    assert report["config"]["options"]["n"] == 2
    assert report["config"]["format"] == "json"
    # the thread count is recorded only when --threads is given
    assert "threads" not in report["config"]
    assert "timestamp" not in report


def test_timestamp_present_by_default(capsys):
    status, report = _run_json(capsys, ["norm", "eval", "--n", "2", "--x", "1,0,0,0"])
    assert status == 0
    assert "timestamp" in report


def test_reports_are_byte_identical(capsys):
    argv = ["--no-timestamp", "check", "lemma2", "--n", "2", "--points", "4000", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    for digest, args in pins.VERIFY_REPORTS.items():
        parts, status = pins.verify_report(digest)
        assert status == 0, args
        assert pins.digest(parts) == digest, args


def test_infinity_harmonic_reports_are_pinned():
    for digest, (args, want) in pins.INFINITY_REPORTS.items():
        parts, status = pins.infinity_report(digest)
        assert status == want, args
        assert pins.digest(parts) == digest, args


def test_central_line_reports(capsys):
    # only the identity is singular: x = 0 gets derivatives and a zero
    # witness (a failed check, exit 1); the identity gets N alone, and the
    # witness refuses it as invalid input (exit 2)
    status, report = _run_json(
        capsys, ["--no-timestamp", "norm", "eval", "--n", "2", "--x", "0,0,0,0", "--t", "1"]
    )
    res = report["results"]
    assert status == 0
    assert res["grad_norm_sq"] == 0.0 and res["x_dot_grad"] == 0.0
    # Euler's relation for the degree-1 gauge: x . grad N + 2t dN/dt = N
    assert abs(res["x_dot_grad"] + 2.0 * res["dN_dt"] - res["N"]) <= 1e-12
    status, report = _run_json(
        capsys, ["--no-timestamp", "norm", "eval", "--n", "2", "--x", "0,0,0,0", "--t", "0"]
    )
    assert status == 0 and report["results"] == {"N": 0.0}

    argv = ["--no-timestamp", "check", "infinity-harmonic", "--n", "2", "--x", "0,0,0,0"]
    status, report = _run_json(capsys, argv + ["--t", "0.3"])
    res = report["results"]
    assert status == 1
    # grad_H N = 0 on x = 0: the witness and its floor are exactly 0
    assert res["value"] == res["noise_floor"] == res["ratio"] == 0.0
    assert res["nonzero_beyond_noise"] is False
    assert main(argv + ["--t", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "invalid"


@pytest.mark.parametrize("x, t, status", [("1e200,0,0,0", "0.3", 1), ("1e42,0,0,0", "1e84", 0)])
def test_witness_runs_at_unit_scale(capsys, x, t, status):
    # the witness evaluates at unit scale, so no scale is refused.  At 1e200
    # t = 0.3 underflows there, leaving a point of the infinity-harmonic
    # slice S = 0 (a failed check); 1e42 with t = 1e84 is a generic point
    argv = ["--no-timestamp", "check", "infinity-harmonic", "--n", "2", "--x", x, "--t", t]
    status_got, report = _run_json(capsys, argv)
    assert status_got == status
    res = report["results"]
    assert res["nonzero_beyond_noise"] is (status == 0)
    if status:
        assert res["ratio"] == pytest.approx(0.018857, rel=1e-4)
    else:
        assert res["ratio"] > 1e13


def test_check_lemma2_passes(capsys):
    status, report = _run_json(
        capsys,
        ["--no-timestamp", "check", "lemma2", "--n", "2", "--points", "5000", "--seed", "1"],
    )
    assert status == 0
    assert report["pass"] is True
    assert len(report["results"]["reports"]) == 3


def test_check_intermediate_report_count(capsys):
    status, report = _run_json(
        capsys,
        ["--no-timestamp", "check", "intermediate", "--n", "2", "--points", "5000", "--seed", "1"],
    )
    assert status == 0
    assert len(report["results"]["reports"]) == 7


def test_check_constants_range(capsys):
    status, report = _run_json(
        capsys, ["--no-timestamp", "check", "constants", "--n-range", "2..8"]
    )
    assert status == 0
    rows = report["results"]["table"]
    assert [r["n"] for r in rows] == list(range(2, 9))
    assert all(r["sign_expected"] for r in rows)
    assert report["results"]["rounding_gate"] == ROUNDING_GATE


def test_check_constants_below_two_exits_2(capsys):
    assert main(["check", "constants", "--n-range", "1..3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert "n >= 2" in err["error"]


def test_check_constants_roundoff_floor(capsys):
    # f'(alpha_opt) is exact calculus: rounding alone, within ROUNDING_GATE
    # eps times the sum of its terms' magnitudes, where the central
    # difference needed an eps floor from n ~ 290 on
    status, report = _run_json(
        capsys, ["--no-timestamp", "check", "constants", "--n-range", "280..300"]
    )
    assert status == 0
    rows = report["results"]["table"]
    assert all(abs(r["stationarity"]) < 1e-15 for r in rows)
    assert all(r["stationarity_ratio"] <= report["results"]["rounding_gate"] for r in rows)


def test_check_constants_rejects_a_point_off_alpha_opt(capsys, monkeypatch):
    # 1e-6 off the stationary point, f' is ~1e9 rounding units
    alpha_opt = inequalities.alpha_opt
    monkeypatch.setattr(inequalities, "alpha_opt", lambda n: alpha_opt(n) * (1 + 1e-6))
    status, report = _run_json(capsys, ["--no-timestamp", "check", "constants"])
    assert status == 1
    rows = report["results"]["table"]
    assert all(r["sign_expected"] for r in rows)
    assert min(r["stationarity_ratio"] for r in rows) > 1e6 * ROUNDING_GATE


def test_bgg_compare(capsys):
    status, report = _run_json(
        capsys,
        ["--no-timestamp", "bgg", "compare", "--n", "2", "--points", "20", "--seed", "2"],
    )
    assert status == 0
    assert report["results"]["max_rel_err"] < 1e-8


FUNDAMENTAL = [
    "--no-timestamp", "check", "fundamental", "--n", "6", "--points", "100", "--seed", "6"
]


def test_check_fundamental_roundoff_floor(capsys):
    # the exact residual is rounding alone: nonzero, and at every point
    # within ROUNDING_GATE eps times the sum of its terms' magnitudes
    status, report = _run_json(capsys, FUNDAMENTAL)
    res = report["results"]
    assert status == 0 and res["within_rounding"] is True
    assert 0 < res["max_abs_residual"] < 1e-13
    assert 0 < res["max_rounding_ratio"] <= res["rounding_gate"] == ROUNDING_GATE


def test_check_fundamental_rejects_non_harmonic_power(capsys, monkeypatch):
    # N^(2-Q+1e-4) is not harmonic: its residual is ~1e10 rounding units
    residual = norm._harmonicity_residual
    monkeypatch.setattr(norm, "_harmonicity_residual", lambda x, t, power: residual(x, t, power + 1e-4))
    status, report = _run_json(capsys, FUNDAMENTAL)
    assert status == 1
    res = report["results"]
    assert res["within_rounding"] is False
    assert res["max_rounding_ratio"] > 1e8 * res["rounding_gate"]


def test_invalid_n_exits_2(capsys):
    status = main(["check", "lemma2", "--n", "1", "--points", "10", "--seed", "1"])
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err
    assert err["kind"] == "invalid"


@pytest.mark.parametrize(
    "before, after",
    [(["--threads", "0"], []), (["--threads", "-3"], [])],
)
def test_invalid_cloud_option_exits_2(capsys, before, after):
    argv = [*before, "check", "lemma2", "--n", "2", "--points", "10", "--seed", "1", *after]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "invalid"


@pytest.mark.parametrize(
    "command",
    ["norm eval --n 2 --x 1,0,0,0", "check fundamental --n 2 --points 10 --seed 1", "check constants",
     "bgg compare --n 2 --points 5 --seed 1", "verify lsi --family power --k 4 --n 2 --seed 1 --beta 0.25"],
    ids=lambda c: " ".join(c.split()[:2]),
)
def test_threads_outside_the_cloud_checks_exits_2(capsys, monkeypatch, command):
    # only check lemma2|intermediate run a pool; elsewhere --threads would be inert
    monkeypatch.setattr(measures, "run_chain", _no_chain)
    assert main(["--no-timestamp", "--threads", "7", *command.split()]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert err["error"] == f"--threads applies only to check lemma2|intermediate, not {' '.join(command.split()[:2])}."


@pytest.mark.parametrize("points", ["0", "-2"])
@pytest.mark.parametrize(
    "command",
    [["check", "lemma2"], ["check", "intermediate"], ["check", "fundamental"], ["bgg", "compare"]],
    ids=lambda c: c[-1],
)
def test_points_below_one_exits_2(capsys, command, points):
    assert main([*command, "--n", "2", "--points", points, "--seed", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert err["error"] == f"Need --points >= 1, got {points}."


VERIFY_SHORT = ["verify", "ubound", "--n", "2", "--seed", "1", "--steps", "600", "--burn", "100"]


@pytest.mark.parametrize(
    "argv",
    [
        VERIFY_SHORT + ["--family", "power", "--k", "4", "--q", "nan"],
        VERIFY_SHORT + ["--family", "power", "--k", "4", "--q", "inf"],
        VERIFY_SHORT + ["--family", "power", "--k", "nan"],
        VERIFY_SHORT + ["--family", "power", "--k", "4", "--step", "inf"],
        # an empty coordinate field is invalid input, not a dropped coordinate
        ["norm", "eval", "--n", "2", "--x", "1,,0,0,0"],
    ],
    ids=["q-nan", "q-inf", "k-nan", "step-inf", "x-empty-field"],
)
def test_non_finite_parameter_exits_2(capsys, argv):
    assert main(["--no-timestamp", *argv]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "invalid"


def _assert_non_finite_exit(capsys, argv):
    # a report holding NaN or infinity is not strict JSON and is not printed
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["kind"] == "numerical"
    assert "non-finite" in err["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x", ["1e200,0,0,0", "1e-200,0,0,0"])
def test_non_finite_report_exits_3(capsys, x):
    # exit 3 is for a report that holds NaN or infinity, and only for one:
    # at 1e200 A and B, of degree 2, overflow; at 1e-200 norm eval runs at
    # unit scale, so its derivatives are finite and the report prints
    argv = ["--no-timestamp", "norm", "eval", "--n", "2", "--x", x]
    if x == "1e200,0,0,0":
        _assert_non_finite_exit(capsys, argv)
        return
    status, report = _run_json(capsys, argv)
    assert status == 0
    assert report["results"]["N"] == pytest.approx(2.0**-0.75 * 1e-200, rel=1e-15)
    assert report["results"]["A"] == report["results"]["dN_dt"] == 0.0


def _ray_argv(s):
    # delta_s(e1 + e4/2, t = 0.3) at n = 6
    x = [0.0] * 12
    x[0], x[3] = s, 0.5 * s
    return ["--no-timestamp", "norm", "eval", "--n", "6", "--x=" + ",".join(map(repr, x)), f"--t={0.3 * s * s!r}"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_norm_eval_overflow_exits_3(capsys):
    # norm eval evaluates at unit scale, so the band where partials_batch's
    # slopes overflow (from about 1e52 on this ray) and the underflow below
    # 1e-50 never reach it; it overflows only where an output leaves float64:
    # at s = 2e154, A = 0.625 s^2 does, while t = 0.3 s^2 is still finite
    for s in (1e-60, 1e51, 1e60, 1e150):
        status, report = _run_json(capsys, _ray_argv(s))
        assert status == 0
        assert report["results"]["N"] / s == pytest.approx(0.81979338990648, rel=1e-13)
        assert report["results"]["grad_norm_sq"] == pytest.approx(0.3516565987833, rel=1e-12)
    _assert_non_finite_exit(capsys, _ray_argv(2e154))


# each single-point output's degree under the dilations delta_lam
DEGREES = {"N": 1, "A": 2, "B": 2, "dN_dt": -1, "grad_norm_sq": 0, "x_dot_grad": 1, "value": -1, "noise_floor": -1}


def _point_results(n, x, t):
    """norm eval's and check infinity-harmonic's results at (x, t), unchecked for finiteness."""
    out = {}
    for command in (["norm", "eval"], ["check", "infinity-harmonic"]):
        argv = [*command, "--n", str(n), "--x=" + ",".join(map(repr, x.tolist())), f"--t={float(t)!r}"]
        with np.errstate(all="ignore"):  # an output past float64's range is inf, and compared as one
            out.update(run(config_from_args(argv))[1]["results"])
    del out["point"]
    return out


def _normal(values):
    return bool(np.all((np.abs(values) >= np.finfo(float).tiny) & (np.abs(values) < np.inf)))


def test_single_point_outputs_scale_by_their_degrees():
    # norm eval and the witness evaluate at unit scale, so at delta_{2^j} p
    # each output is its value at p times 2^(j degree), bit for bit, over
    # j in [-990, 990]; inputs that a dilation rounds are skipped.  A decimal
    # dilation agrees to 1e-12, the witness's value to within its floor
    rng = np.random.default_rng(29)
    checked = 0
    for i in range(24):
        n = (2, 3, 6, 10)[i % 4]
        x = rng.uniform(-2.0, 2.0, 2 * n)
        t = rng.uniform(-3.0, 3.0) if i % 3 else 0.0  # t = 0 reaches the far ends
        base = _point_results(n, x, t)
        for j in rng.integers(-990, 991, 8).tolist():
            with np.errstate(all="ignore"):
                xs, ts = np.ldexp(x, j), np.ldexp(t, 2 * j)
                want = {name: np.ldexp(base[name], j * degree) for name, degree in DEGREES.items()}
            if not (np.array_equal(np.ldexp(xs, -j), x) and np.ldexp(ts, -2 * j) == t):
                continue
            got = _point_results(n, xs, ts)
            assert got["dN_dx"] == base["dN_dx"]
            assert got["nonzero_beyond_noise"] == base["nonzero_beyond_noise"]
            for name in DEGREES:
                assert got[name] == want[name], (name, n, j)
            checked += 1
        for lam in (10.0 ** rng.uniform(-300.0, 300.0, 4)).tolist():
            xs, ts = lam * x, lam * (lam * t)
            if not _normal(np.append(xs, ts)[np.append(x, t) != 0]):
                continue
            got = _point_results(n, xs, ts)
            assert got["dN_dx"] == pytest.approx(base["dN_dx"], rel=1e-12, abs=0.0)
            for name, degree in DEGREES.items():
                with np.errstate(all="ignore"):
                    want = base[name] * np.power(lam, float(degree))
                # the witness's value is exact to its rounding floor, not to 1e-12 of itself
                slack = got["noise_floor"] if name == "value" else 0.0
                if want == 0 or _normal(want):
                    assert got[name] == pytest.approx(want, rel=1e-12, abs=slack), (name, n, lam)
    assert checked > 100


def _no_chain(*args):
    raise AssertionError("a chain ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["--output", "{dir}/r.json", "norm", "eval", "--n", "2", "--x", "1,0,0,0"],
        ["measure", "sample", "--family", "power", "--k", "4", "--n", "2", "--seed", "1",
         "--steps", "400", "--burn", "100", "--out", "{dir}/s.csv"],
        ["--output", "{dir}/r.json", "verify", "ubound", "--family", "power", "--k", "4",
         "--n", "2", "--seed", "1", "--steps", "400", "--burn", "100"],
    ],
    ids=["output", "out", "output-verify"],
)
def test_unwritable_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    # an unwritable --output or --out fails before any chain runs
    monkeypatch.setattr(measures, "run_chain", _no_chain)
    missing = tmp_path / "missing"
    status = main([a.format(dir=missing) for a in argv])
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert str(missing) in err["error"]
    assert not missing.exists()


@pytest.mark.parametrize("extra", [[], ["--step", "1e-9"]], ids=["run", "mis-tuned"])
def test_output_and_out_naming_one_file_exits_2(tmp_path, capsys, monkeypatch, extra):
    # the report would overwrite the samples, and a failed run would remove
    # the file twice; the paths are compared once resolved, before any chain
    monkeypatch.setattr(measures, "run_chain", _no_chain)
    monkeypatch.chdir(tmp_path)
    argv = ["--no-timestamp", "--output", "f", "measure", "sample", "--family", "power", "--k", "4", "--n", "2"]
    argv += ["--seed", "1", "--steps", "600", "--burn", "100", "--out", str(tmp_path / "f"), *extra]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert "same file" in err["error"]
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize(
    "command",
    ["measure sample --out {dir}/s.csv", "verify ubound", "verify poincare", "verify lsi"],
)
def test_short_chain_exits_2_before_any_chain_runs(tmp_path, capsys, monkeypatch, command):
    # batch_means_se needs 100 kept steps; the run must not find out after its chains
    monkeypatch.setattr(measures, "run_chain", _no_chain)
    argv = command.format(dir=tmp_path).split()
    opts = ["--family", "power", "--k", "4", "--n", "2", "--seed", "1", "--steps", "150", "--burn", "100"]
    assert main(argv + opts) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert "--steps - --burn >= 100" in err["error"]
    assert not (tmp_path / "s.csv").exists()


ALPHA_POWER = ["--family", "alpha-power", "--alpha", "1", "--p", "4", "--n", "6", "--seed", "1"]


@pytest.mark.parametrize("command", ["measure sample", "verify poincare", "verify ubound"])
def test_alpha_power_runs_without_beta(capsys, command):
    # beta belongs to the beta-LSI: only verify lsi takes it
    status = main(["--no-timestamp", *command.split(), *ALPHA_POWER, "--steps", "2000", "--burn", "500"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["results"]["family"] == "alpha-power(alpha=1.0, p=4.0)"


@pytest.mark.parametrize("beta", ["-1", "0", "nan", "inf", None])
def test_bad_beta_exits_2_before_any_chain_runs(capsys, monkeypatch, beta):
    monkeypatch.setattr(measures, "run_chain", _no_chain)
    argv = ["verify", "lsi", "--family", "power", "--k", "4", "--n", "6", "--seed", "1"]
    assert main(argv + (["--beta", beta] if beta else [])) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert "beta > 0" in err["error"]


def test_alpha_power_beta_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(measures, "run_chain", _no_chain)
    assert main(["verify", "lsi", *ALPHA_POWER, "--beta", "0.3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "schema": 1,
        "kind": "invalid",
        "error": "alpha-power family needs 0 < beta <= (p-3)/p, got beta=0.3.",
    }


@pytest.mark.parametrize(
    "measure",
    [["--family", "power", "--k", "4"], ["--family", "alpha-power", "--alpha", "1", "--p", "4"]],
    ids=["power", "alpha-power"],
)
def test_beta_cap_is_one_rule_for_power_and_alpha_power(capsys, measure):
    # g = N^4 spelled either way caps beta at (4-3)/4: 0.5 exits 2, 0.25 runs
    argv = ["--no-timestamp", "verify", "lsi", *measure, "--n", "6", "--seed", "1", "--steps", "2000", "--burn", "500"]
    assert main(argv + ["--beta", "0.5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid" and "-3)/" in err["error"]
    assert main(argv + ["--beta", "0.25"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["options"]["beta"] == 0.25


@pytest.mark.parametrize(
    "command, flag",
    [("verify poincare", "--beta"), ("verify ubound", "--beta"), ("measure sample", "--q")],
)
def test_inert_flags_are_refused(capsys, command, flag):
    # the sampler reads no --q and only verify lsi reads --beta
    argv = [*command.split(), "--family", "power", "--k", "4", "--n", "6", "--seed", "1"]
    assert main(argv + [flag, "0.3"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mis_tuned_chain_exits_3(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["measure", "sample", "--family", "power", "--k", "4", "--n", "2", "--seed", "1", "--out", str(out)]
    status = main(argv + ["--steps", "3000", "--step", "1e6", "--burn", "0"])
    assert status == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    assert "mis-tuned" in err["error"]
    assert not out.exists()  # a failed run leaves no CSV behind


def test_unwritable_report_leaves_no_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["--output", str(tmp_path / "missing" / "r.json"), "measure", "sample", "--family", "power"]
    assert main(argv + ["--k", "4", "--n", "2", "--seed", "1", "--steps", "400", "--burn", "100", "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_family_exits_2(capsys):
    status = main(
        ["measure", "sample", "--family", "bogus", "--n", "2", "--seed", "1"]
    )
    assert status == 2


def test_missing_parameter_exits_2(capsys):
    status = main(["measure", "sample", "--family", "power", "--n", "2", "--seed", "1"])
    assert status == 2
    err = capsys.readouterr().err
    assert "k >= 4" in err


def test_measure_sample_csv(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    status, report = _run_json(
        capsys,
        [
            "--no-timestamp",
            "measure",
            "sample",
            "--family",
            "power",
            "--k",
            "4",
            "--n",
            "2",
            "--seed",
            "3",
            "--steps",
            "6000",
            "--burn",
            "1000",
            "--out",
            str(out),
        ],
    )
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x_1,x_2,x_3,x_4,t,logdens"
    assert len(lines) == 5001
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 6
    assert report["results"]["chains"][0]["samples"] == 5000


@pytest.mark.parametrize("algorithm", ["rwm", "mala"])
def test_measure_sample_csv_is_exact(tmp_path, capsys, algorithm):
    # RWM repeats most rows, MALA (acceptance near 0.87) few
    out = tmp_path / "samples.csv"
    opts = ["--n", "2", "--seed", "8", "--steps", "1500", "--burn", "300", "--algorithm", algorithm]
    argv = ["measure", "sample", "--family", "power", "--k", "4", "--chains", "3"]
    assert main(argv + opts + ["--out", str(out)]) == 0
    cfg = measures.SamplerConfig(n_steps=1500, burn_in=300, seed=8, n_chains=3, algorithm=algorithm)
    batches = measures.run_chains(measures.MeasureSpec(family="power", k=4.0), GroupParams(2), cfg)
    # the per-value writer the CSV format was defined by
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(["x_1", "x_2", "x_3", "x_4", "t", "logdens"])
    for b in batches:
        for row, ld in zip(b.coords, b.log_densities):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(ld))])
    assert out.read_bytes() == ref.getvalue().encode()
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    want = np.concatenate([np.column_stack([b.coords, b.log_densities]) for b in batches])
    assert data.tobytes() == want.tobytes()


def test_csv_rows_match_csv_writer():
    nan = float("nan")
    cases = {
        "signed zero": [[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]],
        "repeated nan": [[nan, 2.0], [nan, 2.0], [nan, 2.0], [1.5, -nan]],
        "one row": [[1e-300, -2.5e300]],
        "no repeats": [[0.1, 0.2], [0.2, 0.1], [float("inf"), -1.0]],
    }
    for name, rows in cases.items():
        ref = io.StringIO(newline="")
        csv.writer(ref).writerows(rows)
        got = io.StringIO(newline="")
        _write_csv_rows(got, np.array(rows))
        assert got.getvalue() == ref.getvalue(), name


def test_cli_import_does_not_load_scipy():
    # neither the import nor the quadrature oracle needs scipy
    argv = ["--no-timestamp", "bgg", "compare", "--n", "2", "--points", "5", "--seed", "1"]
    code = (
        "import sys, hgauge.cli; print('scipy' in sys.modules); "
        f"status = hgauge.cli.main({argv!r}); print(status, 'scipy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hgauge.__file__).parents[1]))
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = p.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 False"


def test_output_file_written(tmp_path, capsys):
    path = tmp_path / "report.json"
    status = main(
        [
            "--no-timestamp",
            "--output",
            str(path),
            "norm",
            "eval",
            "--n",
            "2",
            "--x",
            "1 0 0 0",
        ]
    )
    assert status == 0
    report = json.loads(path.read_text())
    assert report["command"] == "norm eval"
    assert report["config"]["output_path"] == str(path)


def test_verify_poincare_short(capsys):
    # at n=6, seed 2 some batches barely touch the offset bump's support, so
    # per-batch ratios of means have no usable spread; the error must not blow up
    argv = ["--no-timestamp", "verify", "poincare", "--family", "power", "--k", "4"]
    for run_args in (
        ["--n", "2", "--seed", "4", "--steps", "15000", "--burn", "3000"],
        ["--n", "6", "--seed", "2", "--steps", "4000", "--burn", "1000"],
    ):
        status = main(argv + run_args)
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert status == 0
        assert report["pass"] is True
        assert len(report["results"]["ratios"]) == 7
        for r in report["results"]["ratios"]:
            assert math.isfinite(r["ratio"]) and math.isfinite(r["se"]), r
            assert r["se"] < r["ratio"], r


def test_run_config_roundtrip():
    cfg = config_from_args(
        ["--no-timestamp", "--threads", "2", "check", "lemma2", "--n", "2", "--points", "100", "--seed", "5"]
    )
    assert cfg.command == "check lemma2"
    assert cfg.threads == 2
    assert cfg.timestamp is False
    assert cfg.options["points"] == 100
    status, report = run(cfg)
    assert status == 0
    assert report["config"]["threads"] == 2


def test_unknown_command_in_run():
    with pytest.raises(ValueError):
        run(RunConfig(command="bogus thing", options={}, output_path=None, timestamp=False, threads=None))


def test_parser_rejects_unknown_subcommand(capsys):
    status = main(["check", "bogus", "--n", "2"])
    assert status == 2
