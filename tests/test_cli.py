import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hgauge
from hgauge import fd, measures
from hgauge.cli import RunConfig, _write_csv_rows, build_parser, config_from_args, main, run
from hgauge.group import GroupParams
from hgauge.norm import npow_field


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


# sha256 prefixes of `verify` reports on 3000-step n=6 chains (seed 3, burn
# 500): terms, anchor and fit are pinned byte for byte
VERIFY_REPORTS = {
    "2c89cbd1ecb4e9d25a47c46662dcf121": "ubound --family cosh-power --k 1",
    "17c50facbe09175420230a4b9cc476f1": "ubound --family power --k 4 --q 3 --restrict-exterior",
    "5ed47fa29378edfff4f0de4311f82978": "lsi --family alpha-power --alpha 1 --p 4 --beta 0.25",
}


def test_reports_are_byte_identical(capsys):
    argv = ["--no-timestamp", "check", "lemma2", "--n", "2", "--points", "4000", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    for digest, args in VERIFY_REPORTS.items():
        argv = ["--no-timestamp", "verify", *args.split(), "--n", "6", "--seed", "3"]
        assert main(argv + ["--steps", "3000", "--burn", "500"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:32] == digest, args


# sha256 prefixes of `check infinity-harmonic` reports and their exit
# status: the witness value, noise floor and verdict are pinned byte for byte
INFINITY_REPORTS = {
    "16b86a3e7cda825d808a0e78b571ce5f": ("--n 2", 0),
    "ab173c441e113db407cb9a0712ad0d62": ("--n 3", 0),
    "814100ea22c1345692bf63924f47ad70": ("--n 6", 0),
    "01ba249315622c2210c2a1ad6b8c0c0c": ("--n 2 --x 1,0,1,0 --t 0", 1),
}


def test_infinity_harmonic_reports_are_pinned(capsys):
    for digest, (args, status) in INFINITY_REPORTS.items():
        assert main(["--no-timestamp", "check", "infinity-harmonic", *args.split()]) == status
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:32] == digest, args


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


def test_check_constants_roundoff_floor(capsys):
    # from n ~ 290 on, rounding in split_objective(alpha_opt +- h) alone
    # exceeds 1e-10; the floor eps (|f(a+h)| + |f(a-h)|) / (2h) admits it
    status, report = _run_json(
        capsys, ["--no-timestamp", "check", "constants", "--n-range", "280..300"]
    )
    assert status == 0
    rows = report["results"]["table"]
    assert any(r["stationarity_fd"] > 1e-10 for r in rows)
    assert all(r["stationarity_fd"] <= 1e-10 + r["stationarity_floor"] for r in rows)


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
    # one point of this cloud has a roundoff residual (~2e-12) above its
    # truncation estimate; the roundoff floor admits it
    status, report = _run_json(capsys, FUNDAMENTAL)
    assert status == 0
    assert report["results"]["bounded_by_truncation"] is True


def test_check_fundamental_rejects_non_harmonic_power(capsys, monkeypatch):
    # N^(2-Q+1e-4) is not harmonic: its residual clears estimate and floor
    monkeypatch.setattr(fd, "npow_field", lambda params, power: npow_field(params, power + 1e-4))
    status, report = _run_json(capsys, FUNDAMENTAL)
    assert status == 1
    res = report["results"]
    assert res["bounded_by_truncation"] is False
    assert res["max_abs_residual"] > 1e3 * res["mean_roundoff_floor"]


def test_invalid_n_exits_2(capsys):
    status = main(["check", "lemma2", "--n", "1", "--points", "10", "--seed", "1"])
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err
    assert err["kind"] == "invalid"


@pytest.mark.parametrize("box", ["0", "1e-4", "0.0005001", "-1", "inf", "1e200"])
def test_box_without_admissible_rows_exits_2(box):
    # the first four boxes are below EXCLUSION: in the first three no x
    # reaches |x| >= EXCLUSION, and at 0.0005001 about 1e-26 of the rows
    # would; a subprocess with a timeout keeps a hang out of the suite.  The
    # last two overflow a box width: t in [-1e400, 1e400]
    argv = ["check", "lemma2", "--n", "2", "--points", "10", "--seed", "1", "--box", box]
    env = dict(os.environ, PYTHONPATH=str(Path(hgauge.__file__).parents[1]))
    cmd = [sys.executable, "-m", "hgauge.cli", *argv]
    p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert p.returncode == 2, p.stderr
    err = json.loads(p.stderr)
    assert err["kind"] == "invalid"
    assert "box" in err["error"]


@pytest.mark.parametrize(
    "before, after",
    [([], ["--tolerance", "nan"]), (["--threads", "0"], []), (["--threads", "-3"], [])],
)
def test_invalid_cloud_option_exits_2(capsys, before, after):
    argv = [*before, "check", "lemma2", "--n", "2", "--points", "10", "--seed", "1", *after]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "invalid"


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


@pytest.mark.parametrize("h_base", ["-1.6e-3", "0", "nan", "inf", "1e400"])
def test_check_fundamental_rejects_bad_step(capsys, h_base):
    argv = ["check", "fundamental", "--n", "6", "--points", "20", "--seed", "3", f"--h-base={h_base}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning before the check fails the test
        assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert "finite and positive" in err["error"]


VERIFY_SHORT = ["verify", "ubound", "--n", "2", "--seed", "1", "--steps", "600", "--burn", "100"]


@pytest.mark.parametrize(
    "argv",
    [
        VERIFY_SHORT + ["--family", "power", "--k", "4", "--q", "nan"],
        VERIFY_SHORT + ["--family", "power", "--k", "4", "--q", "inf"],
        VERIFY_SHORT + ["--family", "power", "--k", "nan"],
        VERIFY_SHORT + ["--family", "power", "--k", "4", "--step", "inf"],
        ["bgg", "compare", "--n", "2", "--points", "5", "--seed", "1", "--max-rel-err", "nan"],
        ["bgg", "compare", "--n", "2", "--points", "5", "--seed", "1", "--rel-tol", "inf"],
    ],
    ids=["q-nan", "q-inf", "k-nan", "step-inf", "max-rel-err-nan", "rel-tol-inf"],
)
def test_non_finite_parameter_exits_2(capsys, argv):
    assert main(["--no-timestamp", *argv]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "invalid"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x", ["1e200,0,0,0", "1e-200,0,0,0"])
def test_non_finite_report_exits_3(capsys, x):
    # at 1e200 the closed form overflows, at 1e-200 the derivatives are NaN;
    # a report holding NaN or infinity is not strict JSON and is not printed
    assert main(["--no-timestamp", "norm", "eval", "--n", "2", "--x", x]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["kind"] == "numerical"
    assert "non-finite" in err["error"]


def _no_chain(*args):
    raise AssertionError("a chain ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["--output", "{dir}/r.json", "norm", "eval", "--n", "2", "--x", "1,0,0,0"],
        ["measure", "sample", "--family", "power", "--k", "4", "--n", "2", "--seed", "1",
         "--steps", "400", "--burn", "100", "--out", "{dir}/s.csv"],
    ],
    ids=["output", "out"],
)
def test_unwritable_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    # an unwritable --out fails before any chain runs
    monkeypatch.setattr(measures, "run_chain", _no_chain)
    missing = tmp_path / "missing"
    status = main([a.format(dir=missing) for a in argv])
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid"
    assert str(missing) in err["error"]
    assert not missing.exists()


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


SCRIPTS = {
    "margin_scan.py --n-max 6": "  n       margin",
    "oracle_sweep.py --dims 2 --points 3": "  n    max rel err",
    "ratio_stability.py --steps 2000 --burn 500 --seeds 1": "measure power(k=4.0)",
}


@pytest.mark.parametrize("command", sorted(SCRIPTS))
def test_script_runs(command):
    script, *args = command.split()
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    env = dict(os.environ, PYTHONPATH=str(Path(hgauge.__file__).parents[1]))
    p = subprocess.run([sys.executable, str(path), *args], env=env, capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith(SCRIPTS[command]), p.stdout


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
        run(RunConfig(command="bogus thing"))


def test_parser_rejects_unknown_subcommand(capsys):
    status = main(["check", "bogus", "--n", "2"])
    assert status == 2
