import importlib.util
import re
import sys
from pathlib import Path

import pytest

import coposos


def test_documented_modules_import():
    modules = re.findall(r":mod:`(coposos\.\w+)`", coposos.__doc__)
    assert modules
    for name in modules:
        importlib.import_module(name)


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def test_traced_names_resolve(monkeypatch):
    # every function the benchmark tracer wraps must exist: a missing one
    # crashes a traced run with AttributeError; bench/ is read, not written
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    targets = [target for layer in tracing.LAYERS.values() for target in layer]
    assert targets
    for target in targets:
        owner, attr = tracing._resolve(*target)
        assert callable(getattr(owner, attr)), target
