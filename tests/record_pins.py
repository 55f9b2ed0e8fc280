"""Report how far each pinned output moved between another checkout and this one.

    python tests/record_pins.py --against ../parent [TABLE ...]

Runs the producers of tests/pins.py (every table, or only the named ones)
once under the other checkout's src and once under this checkout's src, each
in its own process with PYTHONPATH=<side>/src:<this checkout>/tests, and
prints per table and key the new digest and whether the output moved:

- kernel and cloud pins: per moved part, the share of elements whose bits
  differ and the largest distance in ulps;
- report pins: the exit status if it changed and the JSON paths whose
  values differ;
- chains: moved or unchanged only, since one ulp in a log-density can flip an
  acceptance.

A producer that fails on one side prints `unavailable` with its error.  Exit
status 0 means every key is unchanged, 1 that some key moved or is
unavailable.  Nothing is written: re-recording stays a hand edit of pins.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_CHILD = "import sys, record_pins; record_pins.emit(sys.argv[1], sys.argv[2:])"


def emit(path: str, names: list[str]) -> None:
    """Run the producers of the named tables (all if none) and pickle, per
    table, its kind and per key its label and (digest, parts, status) or the
    error it raised."""
    import pins

    unknown = set(names) - set(pins.TABLES)
    if unknown:
        sys.exit(f"unknown tables {sorted(unknown)}; pins.py has {list(pins.TABLES)}")
    out = {}
    for name in names or pins.TABLES:
        table, produce, kind = pins.TABLES[name]
        keys = {}
        for key in table:
            # a report table is keyed by digest: label its keys by their arguments
            label = (table[key] if isinstance(table[key], str) else table[key][0]) if kind == "report" else key
            try:
                result = produce(key)
                parts, status = result if kind == "report" else (result, None)
                keys[label] = (pins.digest(parts), parts, status)
            except Exception as exc:
                keys[label] = f"{type(exc).__name__}: {exc}"
        out[name] = (kind, keys)
    with open(path, "wb") as f:
        pickle.dump(out, f)


def ulps(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Per element of two float64 arrays: whether the bits differ (a NaN
    equals a NaN) and the distance in ulps (inf for a NaN against a number).

    The distance is taken on an ordered int64 view, in which adjacent floats
    are adjacent integers and -0.0 and 0.0 are both 0, so it is right across
    zero; -0.0 against 0.0 moves at distance 0.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    ia, ib = a.view(np.int64), b.view(np.int64)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    moved = (ia != ib) & ~(nan_a & nan_b)
    oa = np.where(ia < 0, -(ia & _MAGNITUDE), ia)
    ob = np.where(ib < 0, -(ib & _MAGNITUDE), ib)
    # the true difference is below 2**64, so unsigned wrap-around gives it exactly
    dist = (np.maximum(oa, ob).view(np.uint64) - np.minimum(oa, ob).view(np.uint64)).astype(np.float64)
    dist[nan_a != nan_b] = math.inf
    dist[nan_a & nan_b] = 0.0
    return moved, dist


def _part_lines(old: tuple, new: tuple) -> list[str]:
    old_parts, new_parts = old[1], new[1]
    lines = []
    for name in [*old_parts, *(k for k in new_parts if k not in old_parts)]:
        if name not in old_parts or name not in new_parts:
            lines.append(f"{name}: only in {'this checkout' if name in new_parts else 'against'}")
            continue
        a, b = np.asarray(old_parts[name]), np.asarray(new_parts[name])
        if a.shape != b.shape or a.dtype != b.dtype:
            lines.append(f"{name}: {a.dtype}{list(a.shape)} -> {b.dtype}{list(b.shape)}")
        else:
            moved, dist = ulps(a, b)
            if moved.any():
                lines.append(f"{name}: {moved.mean():.2%} of {moved.size} moved, max {dist[moved].max():.0f} ulp")
    return lines


def json_paths(a, b, path: str = "$") -> list[str]:
    """The JSON paths at which two parsed reports differ; a NaN equals a NaN."""
    if isinstance(a, dict) and isinstance(b, dict):
        paths = [p for k in a if k in b for p in json_paths(a[k], b[k], f"{path}.{k}")]
        return paths + [f"{path}.{k}" for k in [*a, *b] if (k in a) != (k in b)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (u, v) in enumerate(zip(a, b)) for p in json_paths(u, v, f"{path}[{i}]")]
    nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    return [] if nan or (type(a) is type(b) and a == b) else [path]


def _report_lines(old: tuple, new: tuple) -> list[str]:
    (_, old_parts, old_status), (_, new_parts, new_status) = old, new
    lines = [f"exit status {old_status} -> {new_status}"] if old_status != new_status else []
    try:
        paths = json_paths(json.loads(old_parts["report"]), json.loads(new_parts["report"]))
    except ValueError:
        return lines
    return lines + (paths or ["no value differs: only the bytes"])


# per kind of table, the lines that say how far a moved key moved
_DETAIL = {"kernel": _part_lines, "report": _report_lines, "chain": lambda old, new: []}


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """The report lines for two checkouts' emitted outputs, and whether every key is unchanged."""
    lines, clean, chains_move = [], True, False
    for name, (kind, new_keys) in new.items():
        lines.append(name)
        for label, n in new_keys.items():
            o = old[name][1][label]
            head = f"  {label}: {n[0] if isinstance(n, tuple) else '-' * 32}"
            if isinstance(o, str) or isinstance(n, str):
                side, err = ("against", o) if isinstance(o, str) else ("this checkout", n)
                lines.append(f"{head} unavailable: {side}: {err}")
                clean = False
            elif o[0] == n[0]:
                lines.append(f"{head} unchanged")
            else:
                lines.append(f"{head} moved")
                lines += [f"      {d}" for d in _DETAIL[kind](o, n)]
                clean = False
                chains_move |= name in ("PARTIALS_DIGESTS", "CHAIN_DIGESTS")
    if chains_move:
        lines.append("perfbench/references.json (recorded by perfbench/record.py) will fail the benchmark's chains check")
    return lines, clean


def _run_side(src: Path, path: Path, names: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{TESTS}")
    return subprocess.Popen([sys.executable, "-c", _CHILD, str(path), *names], env=env, cwd=path.parent,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path, help="root of the other checkout")
    parser.add_argument("tables", nargs="*", help="table names of tests/pins.py (default: all)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"against": args.against.resolve() / "src", "this": TESTS.parent / "src"}
        procs = {side: _run_side(src, Path(tmp) / f"{side}.pickle", args.tables) for side, src in sides.items()}
        errors = {side: proc.communicate()[1] for side, proc in procs.items()}
        for side, proc in procs.items():
            if proc.returncode:
                print(f"{side} ({sides[side]}) failed:\n{errors[side]}", file=sys.stderr)
                return 2
        emitted = {side: pickle.loads((Path(tmp) / f"{side}.pickle").read_bytes()) for side in sides}
    lines, clean = compare(emitted["against"], emitted["this"])
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
