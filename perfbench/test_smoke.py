"""Smoke check of the benchmark harness at tiny sizes; not part of tier-1.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["chains", "cloud", "cli"])
def test_tiny_run_reports_every_metric(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seconds", "0", "--trace", trace, "--size", "tiny")
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, p.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert set(out["metrics"]) == names
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "--workload", "chains", "--seconds", "1")
    assert p.returncode != 0
    assert not p.stdout.strip()


def test_self_times_add_up_across_pool_threads():
    tracer = Tracer()
    tracer.job = "0:unit"

    def leaf():
        with tracer.span("leaf"):
            time.sleep(0.02)

    with tracer.span("root"):
        time.sleep(0.01)
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(4)))
    recs = tracer.records()
    root = next(r for r in recs if r["name"] == "root")
    assert sum(r["self_s"] for r in recs) == pytest.approx(root["total_s"], rel=1e-9)
    assert all(r["self_s"] >= 0 for r in recs)
