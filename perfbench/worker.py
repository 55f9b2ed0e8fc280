"""Run one workload's jobs in this process through ``hgauge.cli.main``.

Invoked by run.py as ``python3 perfbench/worker.py '<json config>'``; prints
one JSON line with the pass log, peak RSS and, in traced mode, the per-layer
metrics.  Untraced, it runs passes of the job list until ``seconds`` have
elapsed.  Traced, it runs one warm-up pass, then alternates untraced and
traced passes, so that the tracing overhead is the difference of the two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hgauge  # noqa: E402
from hgauge import cli, measures  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import Job, PassLog, make_jobs, median, run_pass  # noqa: E402


class ChainCapture:
    """Keeps the SampleBatch of every run_chain call of the current job."""

    def __init__(self) -> None:
        self.batches: list = []
        self._orig = measures.run_chain
        measures.run_chain = self._run

    def _run(self, *args, **kwargs):
        batch = self._orig(*args, **kwargs)
        self.batches.append(batch)
        return batch


def chain_observations(job: Job, out: str, batches: list) -> dict:
    """Digests of the chains (coords, log-densities, acceptance, step_final),
    plus consistency of the report and the CSV with those chains."""
    h = {k: hashlib.sha256() for k in ("coords", "log_densities", "acceptance", "step_final")}
    for b in batches:
        h["coords"].update(np.ascontiguousarray(b.coords).tobytes())
        h["log_densities"].update(np.ascontiguousarray(b.log_densities).tobytes())
        h["acceptance"].update(np.float64(b.acceptance_rate).tobytes())
        h["step_final"].update(np.float64(b.step_final).tobytes())
    observed = {k: v.hexdigest()[:16] for k, v in h.items()}
    problems = []
    if len(batches) != job.meta["chains"]:
        problems.append(f"{len(batches)} chains ran")
    try:
        res = json.loads(out)["results"]
    except (ValueError, KeyError):
        res = None  # check_job reports the malformed report
    if res is not None:
        rows = res["chains"] if job.kind == "sample" else [res]
        for r, b in zip(rows, batches):
            # verify reports carry no step_final
            if r["acceptance_rate"] != b.acceptance_rate or r.get("step_final", b.step_final) != b.step_final:
                problems.append("report disagrees with the chain it ran")
    csv_path = job.meta.get("csv")
    if csv_path:
        path = Path(csv_path)
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            want = np.concatenate([np.column_stack([b.coords, b.log_densities]) for b in batches])
            if data.shape != want.shape or not np.array_equal(data, want):
                problems.append("CSV rows differ from the chains bit for bit")
        except OSError as exc:
            problems.append(f"CSV unreadable: {exc}")
        path.unlink(missing_ok=True)
    observed["problems"] = problems
    return observed


class InProcessRunner:
    def __init__(self, tracer: Tracer | None, capture: ChainCapture | None):
        self.tracer = tracer
        self.capture = capture
        self.traced = False

    def __call__(self, job: Job, pass_index) -> tuple[int, str, str, float, dict]:
        if self.capture is not None:
            self.capture.batches = []
        out, err = io.StringIO(), io.StringIO()
        argv = list(job.argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = time.perf_counter()
            if self.traced:
                self.tracer.job = f"{pass_index}:{job.label}"
                with self.tracer.span("job"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
            elapsed = time.perf_counter() - t
        extra = {}
        if job.kind in ("verify", "sample"):
            extra = chain_observations(job, out.getvalue(), self.capture.batches)
        return code, out.getvalue(), err.getvalue(), elapsed, extra


# -- per-layer metrics ----------------------------------------------------------


def _sum(recs, name, key="self_s"):
    return sum(r[key] if key in ("self_s", "total_s", "calls") else r["counts"].get(key, 0)
               for r in recs if r["name"] == name)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(recs: list[dict], wall: float, verify_jobs: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: ``recs`` from Tracer.records,
    ``wall`` the summed time of its jobs."""
    m: dict[str, float] = {}
    m["cli.main.self_s"] = _sum(recs, "cli.main")
    for layer in ("norm_batch", "partials_batch"):
        name = f"norm.{layer}"
        calls, rows = _sum(recs, name, "calls"), _sum(recs, name, "rows")
        single, single_s = _sum(recs, name, "single_calls"), _sum(recs, name, "single_s")
        m[f"{name}.calls"] = calls
        m[f"{name}.rows"] = rows
        m[f"{name}.self_s"] = _sum(recs, name)
        m[f"{name}.us_per_call"] = _ratio(single_s, single, 1e6)
        if layer == "partials_batch":
            m[f"{name}.ns_per_row"] = _ratio(_sum(recs, name, "total_s") - single_s, rows - single, 1e9)
    m["group.field_coefficients_batch.self_s"] = _sum(recs, "group.field_coefficients_batch")

    chains = [r for r in recs if r["name"] == "measures.run_chain"]
    m["measures.run_chain.self_s"] = sum(r["self_s"] for r in chains)
    m["measures.steps"] = sum(r["counts"]["steps"] for r in chains)
    for alg, flag in (("rwm", 0), ("mala", 1)):
        sel = [r for r in chains if r["counts"]["mala"] == flag]
        m[f"measures.us_per_step.{alg}"] = _ratio(
            sum(r["total_s"] for r in sel), sum(r["counts"]["steps"] for r in sel), 1e6
        )
    m["measures.accept_ratio"] = _ratio(
        sum(r["counts"]["accepted"] for r in chains), sum(r["counts"]["kept"] for r in chains)
    )

    for f in ("ubound_terms", "poincare_ratio", "beta_lsi_functional"):
        m[f"coercive.{f}.self_s"] = _sum(recs, f"coercive.{f}")
    m["coercive.fit_s"] = _sum(recs, "coercive.fit_ubound_constants") + _sum(recs, "coercive.fit_beta_lsi")
    in_verify = [r for r in recs if r["job"].split(":", 1)[1] in verify_jobs]
    fit_rows = sum(
        r["counts"].get("rows", 0)
        for r in in_verify
        if r["name"] == "norm.norm_batch" and "measures.run_chain" not in r["ancestors"]
    )
    kept = sum(r["counts"]["kept"] for r in in_verify if r["name"] == "measures.run_chain")
    m["coercive.norm_rows_per_sample"] = _ratio(fit_rows, kept)

    m["inequalities.sample_cloud.self_s"] = _sum(recs, "inequalities.sample_cloud")
    m["inequalities.sample_cloud.points_per_s"] = _ratio(
        _sum(recs, "inequalities.sample_cloud", "points"), _sum(recs, "inequalities.sample_cloud", "total_s")
    )
    for f in ("check_gradient_bounds", "check_partial_bounds"):
        m[f"inequalities.{f}.self_s"] = _sum(recs, f"inequalities.{f}")

    quad = "bgg.fundamental_solution_quad"
    m[f"{quad}.calls"] = _sum(recs, quad, "calls")
    m[f"{quad}.ms_per_call"] = _ratio(_sum(recs, quad, "total_s"), _sum(recs, quad, "calls"), 1e3)
    m["bgg.compare_cloud.self_s"] = _sum(recs, "bgg.compare_cloud")
    m["fd.infinity_laplacian_witness.self_s"] = _sum(recs, "fd.infinity_laplacian_witness")

    m["trace.wall_s"] = wall
    m["trace.residue_frac"] = _ratio(wall - sum(r["self_s"] for r in recs), wall)
    return m


def check_time_without_sampling(recs: list[dict], jobs: set[str]) -> float:
    """Wall time of the bound checks of ``jobs``, sample_cloud excluded."""
    sel = [r for r in recs if r["job"] in jobs]
    checks = sum(r["total_s"] for r in sel if r["name"].startswith("inequalities.check_"))
    return checks - sum(r["total_s"] for r in sel if r["name"] == "inequalities.sample_cloud")


def best_total(plog: PassLog) -> float:
    """Sum over jobs of each job's best time, as run.py reports ``wall_s``."""
    return sum(min(ts) for ts in plog.job_times.values())


def traced_run(
    jobs: list[Job], runner: InProcessRunner, refs: dict, seconds: float, log: PassLog, pin: bool
) -> dict:
    """Warm-up, then untraced and traced passes in turn; per-layer metrics."""
    tracer = runner.tracer

    def traced_pass(pass_jobs: list[Job], plog: PassLog, index) -> None:
        tracer.install()
        runner.traced = True
        try:
            run_pass(pass_jobs, runner, plog, refs, index, pin)
        finally:
            runner.traced = False
            tracer.uninstall()

    t0 = time.perf_counter()
    run_pass(jobs, runner, PassLog(), refs, -1, pin)  # warm-up
    traced = PassLog()
    k = 0
    while k < 1 or time.perf_counter() - t0 < seconds:
        run_pass(jobs, runner, log, refs, k, pin)
        traced_pass(jobs, traced, k)
        k += 1
    # the n=6 cloud checks again on one thread, for the thread speed-up
    single = PassLog()
    for job in jobs:
        if job.kind == "cloud" and job.meta["n"] == 6:
            traced_pass([Job(job.label, ("--threads", "1") + job.argv, job.kind, meta=job.meta)], single, "t1")

    recs = tracer.records()
    verify = {j.label for j in jobs if j.kind == "verify"}
    per_pass = [
        layer_metrics(
            [r for r in recs if r["job"].startswith(f"{i}:")],
            sum(ts[i] for ts in traced.job_times.values()),
            verify,
        )
        for i in range(k)
    ]
    layers = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
    layers["trace_overhead_s"] = best_total(traced) - best_total(log)
    one = set(single.job_times)
    layers["inequalities.thread_speedup"] = _ratio(
        check_time_without_sampling(recs, {f"t1:{j}" for j in one}),
        check_time_without_sampling(recs, {f"{i}:{j}" for i in range(k) for j in one}) / k,
    )
    traced.attempted += single.attempted
    traced.failed += single.failed
    traced.failures += single.failures
    return {"layers": layers, "traced": traced.as_dict(), "spans": tracer.dump()}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    if not Path(hgauge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hgauge imported from {hgauge.__file__}, not from this checkout", file=sys.stderr)
        return 1
    workload, seed = cfg["workload"], cfg["seed"]
    jobs = make_jobs(workload, seed, cfg["size"], cfg["out_dir"])
    refs_all = json.loads((Path(__file__).parent / "references.json").read_text())
    refs = refs_all.get(workload, {}).get(str(seed), {}) if cfg["size"] == "full" else {}
    capture = ChainCapture() if workload == "chains" else None
    runner = InProcessRunner(Tracer() if cfg["trace"] else None, capture)
    pin = workload != "cloud"  # the cloud checks use both CPUs
    log = PassLog()
    result: dict = {}
    if cfg["trace"]:
        result = traced_run(jobs, runner, refs, cfg["seconds"], log, pin)
        spans_path = Path(cfg["spans_dir"]) / f"spans-{workload}-{seed}.json"
        spans_path.write_text(json.dumps(result.pop("spans")))
        result["spans"] = str(spans_path)
    else:
        t0 = time.perf_counter()
        k = 0
        while k < cfg["min_passes"] or time.perf_counter() - t0 < cfg["seconds"]:
            run_pass(jobs, runner, log, refs, k, pin)
            k += 1
    result["log"] = log.as_dict()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
