"""Record the reference outputs that run.py checks later runs against.

    python3 perfbench/record.py chains|cloud SEED [SEED ...]

For each seed it runs one untraced pass of the workload and stores, per
job, the chain digests (coords, log-densities, acceptance, step_final) or
the min_margin of every cloud report in references.json, replacing that
workload's earlier references.  Record only at a commit whose outputs are
trusted; a seed whose pass had a failing job is not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import OUT, bench_env, run_worker

REFS = Path(__file__).resolve().parent / "references.json"


def main(workload: str, seeds: list[int]) -> int:
    refs = json.loads(REFS.read_text())
    env = bench_env()
    out_dir = OUT / "tmp"
    out_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    refs[workload] = {}
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")  # workers must not check old ones
    for seed in seeds:
        cfg = {"workload": workload, "seed": seed, "seconds": 0, "trace": False, "size": "full",
               "out_dir": str(out_dir), "spans_dir": str(OUT), "min_passes": 1}
        log = run_worker(cfg, env)["log"]
        if log["failed"]:
            print(f"{workload} seed {seed} not recorded: {log['failures']}", file=sys.stderr)
            status = 1
            continue
        refs[workload][str(seed)] = {k: v for k, v in log["observed"].items() if v}
        REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{workload} seed {seed} recorded", flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], [int(s) for s in sys.argv[2:]]))
