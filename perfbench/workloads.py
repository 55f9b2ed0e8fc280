"""Job lists of the three workloads and the checks on their outputs.

Every workload is a closed loop with one client: jobs run one after
another, in a fixed order, and the next starts when the previous one has
returned.  The benchmark seed only feeds the generator below; the program
sees nothing but the argv it produces.

    chains  verify/measure jobs at n=6 with shortened chains.  Every sampler
            step calls norm_batch (RWM) or partials_batch (MALA) on one row,
            so per-call overhead dominates; the 8-chain job sits beside the
            single-chain jobs, and --out adds the CSV path.
    cloud   check lemma2/intermediate at n in {2, 6, 10} on 10^6-point
            clouds: sample_cloud and bulk partials_batch, no sampler, no
            scipy.  Coordinate arrays run from 40 MB (n=2) to 168 MB (n=10),
            on both sides of a 105 MB L3.
    cli     one fresh `hgauge` process per job: import dominates, and the
            quadrature oracle (bgg) and the FD stencils (fd) show here.
            `check fundamental` is not among the jobs: its pointwise
            truncation criterion has no roundoff floor and reports
            pass=false on a few percent of seeds (see README.md).
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("chains", "cloud", "cli")

SIZES = {
    "full": {
        "verify": (3000, 500),
        "rwm8": (3000, 500),
        "mala2": (1500, 250),
        "cloud_points": 1_000_000,
        "bgg_points": 200,
    },
    "tiny": {
        "verify": (2000, 500),
        "rwm8": (600, 100),
        "mala2": (600, 100),
        "cloud_points": 40_000,
        "bgg_points": 5,
    },
}

CHAIN_N = 6
CLOUD_NS = (2, 6, 10)
BGG_NS = (2, 3, 6, 8)

# min_margin of a cloud report must match its reference to this share
# (plus an absolute floor for margins that sit at zero)
MARGIN_RTOL = 1e-9
MARGIN_ATOL = 1e-14


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple[str, ...]
    kind: str
    expect: int = 0
    meta: dict = field(default_factory=dict, hash=False, compare=False)


def make_jobs(workload: str, seed: int, size: str = "full", out_dir: str = ".") -> list[Job]:
    """The fixed job list of one workload; inputs depend only on ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    sz = SIZES[size]

    def s() -> str:
        return str(rng.randrange(1, 2 ** 31))

    base = ("--no-timestamp",)
    if workload == "chains":
        jobs = []
        specs = [
            ("poincare-power-k4", "verify poincare --family power --k 4"),
            ("ubound-cosh-k1-q2", "verify ubound --family cosh-power --k 1 --q 2"),
            ("ubound-cosh-k1-q3", "verify ubound --family cosh-power --k 1 --q 3"),
            ("ubound-cosh-k2-q2", "verify ubound --family cosh-power --k 2 --q 2"),
            ("ubound-cosh-k2-q3", "verify ubound --family cosh-power --k 2 --q 3"),
            ("ubound-powerlog-k3", "verify ubound --family power-log --k 3"),
            ("lsi-alpha-p4", "verify lsi --family alpha-power --alpha 1 --p 4 --beta 0.25"),
        ]
        for label, cmd in specs:
            steps, burn = sz["verify"]
            jobs.append(_chain_job(label, cmd, s(), steps, burn, 1, "verify"))
        steps, burn = sz["rwm8"]
        csv_path = f"{out_dir}/samples-rwm8.csv"
        jobs.append(
            _chain_job(
                "sample-rwm-8", f"measure sample --family power --k 4 --chains 8 --out {csv_path}",
                s(), steps, burn, 8, "sample", csv=csv_path,
            )
        )
        steps, burn = sz["mala2"]
        jobs.append(
            _chain_job(
                "sample-mala-2", "measure sample --family power --k 4 --chains 2 --algorithm mala",
                s(), steps, burn, 2, "sample",
            )
        )
        return [Job(j.label, base + j.argv, j.kind, j.expect, j.meta) for j in jobs]
    if workload == "cloud":
        pts = sz["cloud_points"]
        jobs = []
        for n in CLOUD_NS:
            for which in ("lemma2", "intermediate"):
                argv = ("check", which, "--n", str(n), "--points", str(pts), "--seed", s())
                jobs.append(Job(f"{which}-n{n}", base + argv, "cloud", meta={"n": n, "points": pts}))
        return jobs
    if workload == "cli":
        jobs = []
        for n in (2, 6):
            x = [rng.uniform(-2.0, 2.0) for _ in range(2 * n)]
            t = rng.uniform(-3.0, 3.0)
            # "=" keeps argparse from reading a leading minus as an option
            argv = ("norm", "eval", "--n", str(n), "--x=" + ",".join(map(repr, x)), f"--t={t!r}")
            jobs.append(Job(f"norm-eval-n{n}", base + argv, "norm", meta={"n": n, "x": x, "t": t}))
        jobs.append(Job("constants", base + ("check", "constants", "--n-range", "2..20"), "report"))
        jobs.append(Job("infinity-n2", base + ("check", "infinity-harmonic", "--n", "2"), "report"))
        pts = sz["bgg_points"]
        for n in BGG_NS:
            argv = ("bgg", "compare", "--n", str(n), "--points", str(pts), "--seed", s())
            jobs.append(Job(f"bgg-n{n}", base + argv, "bgg"))
        jobs.append(Job("invalid-range", base + ("check", "constants", "--n-range", "1..3"), "invalid", expect=2))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def _chain_job(label, cmd, seed, steps, burn, chains, kind, csv=None) -> Job:
    argv = tuple(cmd.split()) + ("--n", str(CHAIN_N), "--seed", seed, "--steps", str(steps), "--burn", str(burn))
    meta = {"steps": steps, "burn": burn, "chains": chains, "csv": csv}
    return Job(label, argv, kind, meta=meta)


# -- output checks ------------------------------------------------------------


def gauge(n: int, x: list[float], t: float) -> float:
    """Scalar closed-form gauge, written independently of hgauge.norm."""
    r = x[0] ** 2 + x[n] ** 2
    s = sum(v * v for v in x) - r
    a, b = 0.5 * r + 0.5 * s, 0.25 * r + 0.5 * s
    w = math.hypot(b, t)
    e = b + w
    d = a * e + t * t
    return w ** (1.0 / (2 * n)) * d ** (0.5 - 0.25 / n) / math.sqrt(e)


def check_job(job: Job, code: int, out: str, err: str) -> tuple[list[str], dict]:
    """Problems with one job's outputs, and the observations kept as references."""
    if code != job.expect:
        return [f"exit {code}, expected {job.expect}: {err.strip()[-300:]}"], {}
    if job.kind == "invalid":
        try:
            msg = json.loads(err.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return ["stderr carries no JSON error object"], {}
        return ([] if isinstance(msg, dict) and "error" in msg else ["no 'error' key"]), {}
    try:
        report = json.loads(out)
    except ValueError:
        return ["report is not JSON"], {}
    res = report.get("results", {})
    problems = []
    observed: dict = {}
    if report.get("pass") is False:
        problems.append("report says pass=false")
    if job.kind == "norm":
        n, x, t = job.meta["n"], job.meta["x"], job.meta["t"]
        want = gauge(n, x, t)
        if not abs(res["N"] - want) <= 1e-12 * want:
            problems.append(f"N={res['N']!r}, independent value {want!r}")
        euler = res["x_dot_grad"] + 2.0 * t * res["dN_dt"]
        if not abs(euler - res["N"]) <= 1e-12 * res["N"]:
            problems.append(f"Euler identity off: {euler!r} vs N={res['N']!r}")
    elif job.kind == "bgg":
        if not res["max_rel_err"] <= 1e-8:
            problems.append(f"max_rel_err {res['max_rel_err']} above the 1e-8 gate")
    elif job.kind == "cloud":
        reports = res["reports"]
        for r in reports:
            if not r["pass"] or r["n_points"] != job.meta["points"]:
                problems.append(f"report {r['name']} failed or has {r['n_points']} points")
        observed = {r["name"]: r["min_margin"] for r in reports}
    elif job.kind in ("verify", "sample"):
        rows = res["chains"] if job.kind == "sample" else [res]
        kept = job.meta["steps"] - job.meta["burn"]
        if len(rows) != job.meta["chains"]:
            problems.append(f"{len(rows)} chains reported")
        for r in rows:
            if r["samples"] != kept or not 0.02 <= r["acceptance_rate"] <= 0.98:
                problems.append(f"chain has {r['samples']} samples, acceptance {r['acceptance_rate']}")
    return problems, observed


def compare_reference(job: Job, observed: dict, ref: Optional[dict]) -> list[str]:
    """Bit-for-bit digests (chains) or min_margin within tolerance (clouds)."""
    if ref is None:
        return []
    if set(observed) != set(ref):
        return [f"observed keys {sorted(observed)} differ from the reference"]
    problems = []
    for key, want in ref.items():
        got = observed[key]
        if isinstance(want, str):
            ok = got == want
        else:
            ok = abs(got - want) <= MARGIN_RTOL * max(abs(got), abs(want)) + MARGIN_ATOL
        if not ok:
            problems.append(f"{key}: {got!r} differs from reference {want!r}")
    return problems


# -- the closed loop ----------------------------------------------------------

# (job, pass index) -> (exit code, stdout, stderr, seconds the job ran, observations)
Runner = Callable[[Job, object], tuple[int, str, str, float, dict]]


@dataclass
class PassLog:
    walls: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # seconds of the CPU probe per pinned job
    job_times: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "walls": self.walls,
            "probes": self.probes,
            "job_times": self.job_times,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "observed": self.observed,
        }


ALL_CPUS = frozenset(os.sched_getaffinity(0))


def _probe() -> float:
    t = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += math.sqrt(i)
    return time.perf_counter() - t


def pin_quietest_cpu() -> float:
    """Pin this process (and the children it starts) to the CPU that runs a
    short probe fastest.

    On a shared host each vCPU alternates between a fast phase and one about
    1.7x slower, seconds to minutes long, and the two vCPUs do so
    independently; a single-threaded job on the quieter one gives steadier
    times.  Returns the probe time on the chosen CPU.
    """
    speed = {}
    for cpu in sorted(ALL_CPUS):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = _probe()
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return speed[best]


def run_pass(jobs: list[Job], runner: Runner, log: PassLog, refs: dict, pass_index, pin: bool) -> None:
    """Run every job once, in order, and check each output.

    Job times come from the runner and cover the job alone, not its checks.
    With ``pin``, each job runs on the quietest CPU (for single-threaded jobs).
    """
    t0 = time.perf_counter()
    for job in jobs:
        if pin:
            log.probes.append(pin_quietest_cpu())
        t = time.perf_counter()
        try:
            code, out, err, elapsed, extra = runner(job, pass_index)
            problems, observed = check_job(job, code, out, err)
            problems += extra.pop("problems", [])
            observed.update(extra)
            problems += compare_reference(job, observed, refs.get(job.label))
        except Exception as exc:  # a job that raises counts as failed; keep going
            elapsed = time.perf_counter() - t
            problems, observed = [f"{type(exc).__name__}: {exc}"], {}
        log.attempted += 1
        log.job_times.setdefault(job.label, []).append(elapsed)
        log.observed.setdefault(job.label, observed)
        if problems:
            log.failed += 1
            log.failures.append(f"{job.label}: {'; '.join(problems)}")
    log.walls.append(time.perf_counter() - t0)
    if pin:
        os.sched_setaffinity(0, ALL_CPUS)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
