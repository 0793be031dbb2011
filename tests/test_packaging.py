"""Packaging metadata: every declared console script and every exported name resolves."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import microloc

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_import():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def test_module_exports_resolve():
    for info in pkgutil.iter_modules(microloc.__path__):
        module = importlib.import_module(f"microloc.{info.name}")
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert not missing, f"microloc.{info.name}.__all__ names missing objects: {missing}"
