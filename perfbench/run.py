"""hgauge benchmark: closed-loop workloads `chains`, `cloud` and `cli`.

    python3 perfbench/run.py --workload chains|cloud|cli|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a source checkout; the package is imported from
its ``src/``.  With ``--trace 0`` it reports the end-to-end metrics
(setup_s, wall_s, job_s.p50, peak_rss_mb); with ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
stdout is one JSON object.  ``--workload all`` runs the three workloads in
turn and prints each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    ALL_CPUS, CLOUD_NS, SIZES, WORKLOADS, PassLog, make_jobs, median, pin_quietest_cpu, run_pass,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_PASSES = 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def bench_env() -> dict:
    """Child environment: this checkout's package, BLAS/OpenMP pinned to one
    thread so that total threads stay within nproc (cloud checks use the
    CLI's own default thread count)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def environment(size: str) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{idx}/level"), read(f"{idx}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{idx}/size")
    mem = next((ln.split(":", 1)[1].strip() for ln in read("/proc/meminfo").splitlines()
                if ln.startswith("MemTotal")), "unknown")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "not a git checkout"
    pts = SIZES[size]["cloud_points"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "mem_total": mem,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "cloud_coords_bytes": {f"n={n}": pts * (2 * n + 1) * 8 for n in CLOUD_NS},
    }


def timed_import(env: dict, extra: tuple[str, ...] = ()) -> tuple[float, str]:
    t = time.perf_counter()
    p = subprocess.run([sys.executable, *extra, "-c", "import hgauge.cli"], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t
    if p.returncode != 0:
        raise RuntimeError(f"import hgauge.cli failed: {p.stderr.strip()[-500:]}")
    return dt, p.stderr


def import_times(stderr: str) -> tuple[float, float]:
    """(hgauge.cli import, scipy share) in seconds from ``-X importtime``."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cum), name.strip()))
    # importing hgauge.cli imports the hgauge package inside its own entry
    total = max(cum for _, cum, name in rows if name in ("hgauge", "hgauge.cli"))
    scipy = 0
    stack: list[tuple[int, str]] = []
    for depth, cum, name in reversed(rows):  # reversed post-order: parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy += cum
        stack.append((depth, name))
    return total / 1e6, scipy / 1e6


def run_worker(cfg: dict, env: dict) -> dict:
    p = subprocess.run([sys.executable, str(Path(__file__).parent / "worker.py"), json.dumps(cfg)],
                       env=env, cwd=ROOT, capture_output=True, text=True, timeout=cfg["seconds"] + 120)
    if p.returncode != 0:
        raise RuntimeError(f"worker failed ({p.returncode}): {p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    env = bench_env()
    out_dir = OUT / "tmp"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
           "out_dir": str(out_dir), "spans_dir": str(OUT), "min_passes": MIN_PASSES}
    if trace:
        timed_import(env)  # fill the bytecode cache
        pairs = [import_times(timed_import(env, ("-X", "importtime"))[1]) for _ in range(IMPORT_REPEATS)]
        res = run_worker(cfg, env)
        layers = res["layers"]
        layers["cli.import_s"] = median([a for a, _ in pairs])
        layers["cli.import_scipy_s"] = median([b for _, b in pairs])
        log = res["log"]
        attempted = log["attempted"] + res["traced"]["attempted"]
        failed = log["failed"] + res["traced"]["failed"]
        failures = log["failures"] + res["traced"]["failures"]
        return {"metrics": layers, "attempted": attempted, "failed": failed, "failures": failures,
                "samples": {}, "spans": res["spans"]}

    def measure_setups(count: int) -> list[float]:
        times = []
        for _ in range(count):
            pin_quietest_cpu()
            times.append(timed_import(env)[0])
        os.sched_setaffinity(0, ALL_CPUS)
        return times

    timed_import(env)  # fill the bytecode cache
    # half of the set-ups before the passes and half after, so that they
    # sample more than one phase of a shared core
    setups = measure_setups(SETUP_REPEATS // 2)
    if workload == "cli":
        jobs = make_jobs(workload, seed, size, str(out_dir))

        def runner(job, _pass):
            t = time.perf_counter()
            p = subprocess.run([sys.executable, "-m", "hgauge.cli", *job.argv], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120)
            return p.returncode, p.stdout, p.stderr, time.perf_counter() - t, {}

        plog = PassLog()
        t0 = time.perf_counter()
        k = 0
        while k < MIN_PASSES or time.perf_counter() - t0 < seconds:
            run_pass(jobs, runner, plog, {}, k, pin=True)
            k += 1
        log = plog.as_dict()
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        res = run_worker(cfg, env)
        log, peak = res["log"], res["peak_rss_mb"]
    setups += measure_setups(SETUP_REPEATS - len(setups))
    # Each job's best time over the passes: on a shared core the speed
    # alternates between phases seconds long, and a median over a few passes
    # inherits the share of slow phases, while the best time does not.
    best = [min(ts) for ts in log["job_times"].values()]
    metrics = {
        "setup_s": median(setups),
        "wall_s": sum(best),
        "job_s.p50": median(best),
        "peak_rss_mb": peak,
    }
    samples = {"setup_s": len(setups), "wall_s": len(log["walls"]), "job_s.p50": len(best), "peak_rss_mb": 1}
    return {"metrics": metrics, "samples": samples, "attempted": log["attempted"], "failed": log["failed"],
            "failures": log["failures"], "job_times": log["job_times"], "probes": log["probes"]}


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report_lines(workload: str, res: dict, units: dict[str, str]) -> list[str]:
    lines = []
    for name, value in res["metrics"].items():
        n = res["samples"].get(name)
        lines.append(f"{workload:7s} {name:45s} {value:14.6g} {units[name]:11s}" + (f" (n={n})" if n else ""))
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    lines.append(f"{workload:7s} {'failed_frac':45s} {frac:14.6g} {'':11s} "
                 f"({res['failed']} of {res['attempted']} jobs)")
    if res.get("probes"):
        lines.append(f"{workload:7s} {'cpu_probe_ms (speed of the pinned CPU)':45s} "
                     f"{1e3 * median(res['probes']):14.6g} {'ms':11s} (n={len(res['probes'])})")
    for label, times in res.get("job_times", {}).items():
        lines.append(f"{workload:7s} {'job ' + label:45s} {median(times):14.6g} {'s':11s} (n={len(times)})")
    lines += [f"{workload:7s} FAILED {f}" for f in res["failures"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny is for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "hgauge" / "__init__.py").is_file():
        print(f"no hgauge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    env_record = environment(args.size)
    print("env " + json.dumps(env_record, sort_keys=True))
    units = metric_units()
    # cli reads its peak RSS from RUSAGE_CHILDREN, so it runs before any worker
    workloads = ("cli", "chains", "cloud") if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        try:
            res = run_workload(w, args.seed, args.seconds, bool(args.trace), args.size)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{w}: {exc}", file=sys.stderr)
            return 1
        results[w] = res
        for line in report_lines(w, res, units):
            print(line)
        if "spans" in res:
            print(f"{w:7s} spans written to {res['spans']}")
    (OUT / "env.json").write_text(json.dumps(env_record, indent=2, sort_keys=True))

    def summary(res: dict, prefix: str = "") -> dict:
        metrics = {f"{prefix}{k}": {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
        return {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                "metrics": metrics}

    if len(results) == 1:
        out = summary(results[workloads[0]])
    else:
        parts = [summary(r, f"{w}.") for w, r in results.items()]
        out = {"correct": all(p["correct"] for p in parts),
               "attempted": sum(p["attempted"] for p in parts),
               "failed": sum(p["failed"] for p in parts),
               "metrics": {k: v for p in parts for k, v in p["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
