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


def _load_bench(name, monkeypatch):
    """The module bench/<name>.py, loaded read-only: no bytecode is written."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    # every function the benchmark tracer wraps must exist: a missing one
    # crashes a traced run with AttributeError
    tracing = _load_bench("tracing", monkeypatch)
    targets = [target for layer in tracing.LAYERS.values() for target in layer]
    assert targets
    for target in targets:
        owner, attr = tracing._resolve(*target)
        assert callable(getattr(owner, attr)), target


@pytest.mark.parametrize("workload", ["alpha-K", "alpha-Q", "member", "chi"])
def test_expected_spans_fire(workload, monkeypatch):
    # a traced benchmark run reports a layer whose span never fires as
    # missing; the first small call of each workload must reach them all
    tracing = _load_bench("tracing", monkeypatch)
    workloads = _load_bench("workloads", monkeypatch)
    call = next(c for c in workloads.build_calls(workload, 1) if c.small)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    assert workloads.EXPECTED_SPANS[workload] <= tracer.fired()
