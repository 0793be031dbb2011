"""Packaging metadata: every declared console script and every exported name
resolves, and no module imports a name it never uses."""

import ast
import importlib
import pkgutil
import tomllib
from pathlib import Path

import microloc

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


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


def _unused_imports(source):
    """Names a module imports but neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_unused_imports_detector():
    src = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b, c\n"
    src += "__all__ = ['c']\nnp.zeros(1)\n"
    assert _unused_imports(src) == ["b", "os"]


def test_no_unused_imports():
    hits = {
        path.name: names
        for path in sorted((ROOT / "src" / "microloc").glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert not hits, f"unused imports: {hits}"
