import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hgauge

MODULES = ["hgauge"] + [f"hgauge.{m.name}" for m in pkgutil.iter_modules(hgauge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_readme_python_blocks_run():
    # the blocks build on each other (the second uses the first's params)
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].feasible
