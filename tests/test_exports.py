import importlib
import pkgutil

import pytest

import hgauge

MODULES = ["hgauge"] + [f"hgauge.{m.name}" for m in pkgutil.iter_modules(hgauge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
