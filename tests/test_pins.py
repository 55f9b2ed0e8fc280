import ast
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import pins
from record_pins import json_paths, ulps

TESTS = Path(__file__).resolve().parent


def test_pin_tables_are_registered():
    # a table that leaves the registry leaves the recorder and this guard with it
    assert set(pins.TABLES) == {
        "CHAIN_DIGESTS",
        "PARTIALS_DIGESTS",
        "CLOUD_DIGESTS",
        "SHELL_DIGESTS",
        "COMPARE_DIGESTS",
        "VERIFY_REPORTS",
        "INFINITY_REPORTS",
        "REDRAW_DIGESTS",
    }
    for name, (table, _, kind) in pins.TABLES.items():
        assert table is getattr(pins, name) and kind in ("kernel", "chain", "report")


def test_digests_live_only_in_pins():
    for path in sorted(TESTS.rglob("*.py")):
        if path.name == "pins.py":
            continue
        text = path.read_text()
        assert not re.search(r"^\s*(import|from)\s+hashlib\b", text, re.M), path.name
        assert not re.search(r"\b[0-9a-f]{32}\b", text), path.name


def _covered_keys():
    """Per table, the keys the digest tests check: all of a table that a test
    parametrises or loops over, and each key it subscripts by a literal."""
    covered = {name: set() for name in pins.TABLES}

    def tables(node):
        return [
            n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "pins"
            and n.attr in pins.TABLES
        ]

    for path in sorted(set(TESTS.glob("test_*.py")) - {TESTS / "test_pins.py"}):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("test_"):
                continue
            loops = [n.iter for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
            for name in {t for node in [*fn.decorator_list, *loops] for t in tables(node)}:
                covered[name] |= set(getattr(pins, name))
            for n in ast.walk(fn):
                if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant) and tables(n.value):
                    covered[tables(n.value)[0]].add(n.slice.value)
    return covered


def test_every_pinned_key_is_checked():
    assert _covered_keys() == {name: set(table) for name, (table, _, _) in pins.TABLES.items()}


def test_ulps_on_synthetic_pairs():
    tiny = 5e-324
    big = np.finfo(float).max
    a = np.array([1.5, 1.0, -tiny, 0.0, math.nan, math.nan, math.inf, -math.inf, big])
    b = np.array([1.5, np.nextafter(1.0, 2.0), tiny, -0.0, math.nan, 1.0, math.inf, math.inf, math.inf])
    moved, dist = ulps(a, b)
    assert moved.tolist() == [False, True, True, True, False, True, False, True, True]
    assert dist.tolist() == [0.0, 1.0, 2.0, 0.0, 0.0, math.inf, 0.0, float(2 * 0x7FF0_0000_0000_0000), 1.0]
    # the distance does not depend on the order of the two sides
    assert np.array_equal(ulps(b, a)[1], dist) and np.array_equal(ulps(b, a)[0], moved)


def test_json_paths_of_two_reports():
    old = {"results": {"C": 1.0, "rows": [1, 2.5, math.nan], "gone": 0}, "pass": True}
    new = {"results": {"C": 1.0, "rows": [1, 2.5000000000000004, math.nan], "new": 0}, "pass": 1}
    assert json_paths(old, new) == ["$.results.rows[1]", "$.results.gone", "$.results.new", "$.pass"]
    assert json_paths(old, old) == []


def test_recorder_against_this_checkout():
    # both sides run this checkout's src, so every key is unchanged
    out = subprocess.run(
        [sys.executable, str(TESTS / "record_pins.py"), "--against", str(TESTS.parent), "SHELL_DIGESTS"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "SHELL_DIGESTS"
    assert lines[1:] == [f"  {n}: {digest} unchanged" for n, digest in pins.SHELL_DIGESTS.items()]
