"""Packaging metadata: every declared console script and every exported name
resolves, every public top-level name is exported, no module imports a name
it never uses, no module binds mutable state at top level, every option of a
library function and every public function has a caller outside the tests,
every allowlisted exception is still needed, only quantize.probe_sweep
finishes a report, and the package runs on numpy alone."""

import ast
import importlib
import math
import os
import pkgutil
import subprocess
import sys
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


def test_runtime_dependencies_are_numpy_only():
    # scipy is a test dependency: importing every module in a fresh
    # interpreter loads none of it
    meta = tomllib.loads(PYPROJECT.read_text())
    assert [d.split(">")[0] for d in meta["project"]["dependencies"]] == ["numpy"]
    code = ("import importlib, pkgutil, sys, microloc\n"
            "for info in pkgutil.iter_modules(microloc.__path__):\n"
            "    importlib.import_module(f'microloc.{info.name}')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True).stdout
    assert out.strip() == "[]"


def test_module_exports_resolve():
    for info in pkgutil.iter_modules(microloc.__path__):
        module = importlib.import_module(f"microloc.{info.name}")
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert not missing, f"microloc.{info.name}.__all__ names missing objects: {missing}"


def _exported(tree):
    """The names a module's __all__ lists; None without an __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


def _unexported(source):
    """Public top-level functions and classes of a module missing from its
    __all__ (a module without one exports every public name)."""
    tree = ast.parse(source)
    exported = _exported(tree)
    if exported is None:
        return []
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    return sorted(public - exported)


def test_unexported_detector():
    src = "__all__ = ['f']\ndef f():\n    pass\ndef g():\n    pass\n"
    src += "def _h():\n    pass\nclass K:\n    def m(self):\n        pass\n"
    assert _unexported(src) == ["K", "g"]
    assert _unexported("def g():\n    pass\n") == []


def test_public_names_are_exported():
    hits = {
        path.name: names
        for path in sorted((ROOT / "src" / "microloc").glob("*.py"))
        if (names := _unexported(path.read_text()))
    }
    assert not hits, f"public names missing from __all__: {hits}"


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
    return sorted(imported - used - (_exported(tree) or set()))


def test_unused_imports_detector():
    src = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b, c\n"
    src += "__all__ = ['c']\nnp.zeros(1)\n"
    assert _unused_imports(src) == ["b", "os"]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "microloc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    hits = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if (names := _unused_imports(path.read_text()))
    }
    assert not hits, f"unused imports: {hits}"


def _mutable_bindings(source):
    """Top-level assignments, other than __all__, whose value is not a constant."""
    hits = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names = [ast.unparse(t) for t in targets]
        if names != ["__all__"] and not isinstance(node.value, ast.Constant):
            hits += names
    return hits


def test_no_module_level_mutable_state():
    src = "__all__ = ['f']\nA = 0.5\n_CACHE = {}\nB: list = []\nC = f(1)\ndef f(x):\n    y = {}\n"
    assert _mutable_bindings(src) == ["_CACHE", "B", "C"]
    hits = {
        path.name: names
        for path in sorted((ROOT / "src" / "microloc").glob("*.py"))
        if (names := _mutable_bindings(path.read_text()))
    }
    assert not hits, f"module-level bindings that are not constants: {hits}"


def _library():
    return [p.read_text() for p in sorted((ROOT / "src" / "microloc").glob("*.py"))]


def _bench():
    return [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]


# Options kept without a caller outside the tests, keyed as _uncalled_options
# names them, with what each is for: a test alone does not justify an option.
OPTION_ALLOWLIST = {
    "singularity_experiment_infinite(cfl)": "the step-size refinement check of its verdict",
    "singularity_experiment_smoothing(cfl)": "the step-size refinement check of its verdict",
    "is_singular_at_order(tol_order)": "the membership slack of item 7's verdict rule",
    # the functions of these three are in REACH_ALLOWLIST: no experiment calls them
    "transform(direction)": "the inverse grid transform",
    "wave_packet(normalize)": "the unit-L2 packet",
    "gaussian_bump_metric(width)": "the bump width of item 9's surface",
}


def _callee(node):
    f = node.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _uncalled_options(defining, calling):
    """Defaulted parameters of the functions in `defining` that no call in
    `calling` sets, as "name(param)" strings.

    Both arguments are lists of module sources.  A call sets a parameter by
    keyword or by position (a method call through an attribute passes self
    implicitly); a call with *args sets every positional one, and a call with
    **name the keyword names of the dict(...) calls and the string keys of the
    {...} displays in its own module.  Functions whose name is defined more
    than once are skipped: a call by name cannot tell them apart.
    """
    defs = {}
    for src in defining:
        tree = ast.parse(src)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((node, id(node) in methods))
    keywords, positional = {}, {}
    for src in calling:
        nodes = list(ast.walk(ast.parse(src)))
        dict_keys = {k.arg for n in nodes if isinstance(n, ast.Call) and _callee(n) == "dict"
                     for k in n.keywords if k.arg}
        dict_keys |= {k.value for n in nodes if isinstance(n, ast.Dict) for k in n.keys
                      if isinstance(k, ast.Constant) and isinstance(k.value, str)}
        for node in nodes:
            if not isinstance(node, ast.Call) or (name := _callee(node)) is None:
                continue
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
            if any(k.arg is None for k in node.keywords):
                keywords[name] |= dict_keys
            n_pos = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            positional[name] = max(positional.get(name, 0), n_pos)
    hits = []
    for name, found in sorted(defs.items()):
        if len(found) > 1:
            continue
        node, in_class = found[0]
        args = node.args.posonlyargs + node.args.args
        if in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                for d in node.decorator_list):
            args = args[1:]
        first_default = len(args) - len(node.args.defaults)
        params = [(i, a.arg) for i, a in enumerate(args) if i >= first_default]
        params += [(math.inf, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                   if d is not None]
        hits += [f"{name}({param})" for i, param in params
                 if param not in keywords.get(name, ()) and positional.get(name, 0) <= i]
    return hits


def test_uncalled_options_detector():
    lib = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "def g(x=0, cfl=0.5):\n    pass\n"
        "def twice(p=1):\n    pass\n"
        "class K:\n    def twice(self, q=1):\n        pass\n"
        "    def m(self, r=1, s=2):\n        def inner(t=0):\n            def deep(v=0):\n"
        "                pass\n            deep(v=1)\n        inner(1)\n"
        "def h(y=1):\n    pass\n"
        "def p(u=1, w=2):\n    pass\n"
        "def q(v=1, k=2):\n    pass\n"
    )
    use = "f(0, 5)\nf(0, d=1)\nK().m(1)\nh(**{})\nkw = dict(u=3)\np(**kw)\nq(**{'v': 1})\n"
    assert _uncalled_options([lib], [lib, use]) == ["f(c)", "g(x)", "g(cfl)", "h(y)", "m(s)",
                                                    "p(w)", "q(k)"]


def test_every_option_has_a_caller():
    # callers in the library and the benchmark only: an option that only a
    # test sets is a default the experiments never leave
    hits = _uncalled_options(_library(), _library() + _bench())
    unlisted = [h for h in hits if h not in OPTION_ALLOWLIST]
    assert not unlisted, f"defaulted parameters that no caller outside the tests sets: {unlisted}"
    stale = sorted(set(OPTION_ALLOWLIST) - set(hits))
    assert not stale, f"OPTION_ALLOWLIST entries that are gone or now have a caller: {stale}"


# Public functions kept without a caller in the library or the benchmark:
# gaussian_bump_metric (ROADMAP item 9), smoothing_experiment (the model
# smoothing result), is_singular_at_order (item 7's verdict), and the grid and
# strip-scheme primitives discrete_flat_symbol, wave_packet, transform, inner.
REACH_ALLOWLIST = {"gaussian_bump_metric", "smoothing_experiment", "is_singular_at_order",
                   "discrete_flat_symbol", "wave_packet", "transform", "inner"}


def _references(tree, strings=False):
    """Names, attributes and import aliases in tree, and with strings its string constants."""
    for n in ast.walk(tree):
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias)):
            yield n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _unreached(library, outside):
    """Exported top-level functions and classes of the `library` sources that
    no other library statement nor any `outside` source (strings included) names."""
    exported, reached = set(), set()
    for src in library:
        tree = ast.parse(src)
        names = _exported(tree) or set()
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            exported |= {own} & names
            reached.update(r for r in _references(node) if r != own)
    for src in outside:
        reached.update(_references(ast.parse(src), strings=True))
    return sorted(exported - reached)


def test_unreached_detector():
    lib = ("__all__ = ['f', 'g', 'h', 'K', 'L', 'c']\nc = 1\ndef f():\n    return f()\n"
           "def g():\n    pass\ndef h():\n    return g\nclass K:\n    pass\nclass L:\n    pass\n")
    use = "from a import h\nTARGETS = (('m', 'K'),)\nimport m\nm.L()\n"
    assert _unreached([lib], [use]) == ["f"]
    assert _unreached([lib], ["h()\n"]) == ["K", "L", "f"]


def test_every_public_function_is_reached():
    unreached = _unreached(_library(), _bench())
    hits = [name for name in unreached if name not in REACH_ALLOWLIST]
    assert not hits, f"public functions that only tests reach: {hits}"
    stale = sorted(REACH_ALLOWLIST - set(unreached))
    assert not stale, f"REACH_ALLOWLIST entries that are gone or now reached: {stale}"


def _report_tail_writers(modules):
    """"module.function" for each top-level function or method of the
    {module name: source} map that calls boundary_mass_fraction or assigns
    meta["separation"]."""
    hits = []
    for module, src in sorted(modules.items()):
        tree = ast.parse(src)
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        funcs += [f for c in tree.body if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, ast.FunctionDef)]
        for fn in funcs:
            for n in ast.walk(fn):
                calls = isinstance(n, ast.Call) and _callee(n) == "boundary_mass_fraction"
                stores = (isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                          and ast.unparse(n.value).split(".")[-1] == "meta"
                          and isinstance(n.slice, ast.Constant) and n.slice.value == "separation")
                if calls or stores:
                    hits.append(f"{module}.{fn.name}")
                    break
    return hits


def test_report_tail_writers_detector():
    lib = ("def f(u):\n    rep.meta['separation'] = 1.0\n"
           "def g(u):\n    return grid.boundary_mass_fraction(u)\n"
           "def h(meta):\n    meta['other'] = 1\n    return meta['separation']\n"
           "class K:\n    def k(self):\n        self.meta['separation'] = None\n")
    assert _report_tail_writers({"m": lib}) == ["m.f", "m.g", "m.k"]


def test_only_probe_sweep_finishes_a_report():
    # the fields every report shares are written in one place: an experiment
    # returns probe_sweep's report as it stands
    modules = {p.stem: p.read_text() for p in (ROOT / "src" / "microloc").glob("*.py")}
    assert _report_tail_writers(modules) == ["quantize.probe_sweep"]
