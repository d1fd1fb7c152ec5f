import importlib
import re
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
