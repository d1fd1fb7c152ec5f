import ast
import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coposos
from coposos import sdpcore
from coposos.cones import Verdict, validate_certificate


def test_documented_modules_import():
    modules = re.findall(r":mod:`(coposos\.\w+)`", coposos.__doc__)
    assert modules
    for name in modules:
        importlib.import_module(name)


def test_sdpcore_docstring_names_only_exports():
    # a name the package docstring advertises must be exported, and every
    # export must resolve
    named = re.findall(r"`(\w+)`", sdpcore.__doc__)
    assert named and set(named) <= set(sdpcore.__all__)
    assert all(hasattr(sdpcore, name) for name in sdpcore.__all__)


_SCIPY_AT_FIRST_SOLVE = r"""
import importlib, re, sys
import coposos
for name in re.findall(r":mod:`(coposos\.\w+)`", coposos.__doc__):
    importlib.import_module(name)
from coposos.apps import chromatic_program, parse_dimacs
from coposos.cones import ConeKind, build_membership
from coposos.polycore import SymMatrix
from coposos.relax import build_relaxation_sdp
from coposos.sdpcore import SdpStatus, export_sparse, parse_sparse, solve

g = parse_dimacs("c four-cycle\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
problem = build_membership(SymMatrix.identity(3), 1, ConeKind.K)
rel = build_relaxation_sdp(chromatic_program(g), 1, ConeKind.Q)
for sdp in (problem.sdp, rel.sdp):
    assert parse_sparse(export_sparse(sdp)).num_constraints == sdp.num_constraints
loaded = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
assert not loaded, loaded
assert solve(problem.sdp).status == SdpStatus.OPTIMAL
loaded = {m for m in sys.modules if m.partition(".")[0] == "scipy"}
assert loaded == {"scipy.linalg._flapack"}, loaded
"""


def _fresh_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(coposos.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_scipy_loads_at_the_first_solve():
    # only the Schur factorization needs scipy: importing, parsing, building
    # and exporting run in a fresh interpreter without loading it, and the
    # first solve loads scipy's compiled LAPACK module and nothing else of it
    proc = _fresh_python(_SCIPY_AT_FIRST_SOLVE)
    assert proc.returncode == 0, proc.stderr


_SAME_ROUTINES = r"""
import sys
from coposos.cones import ConeKind, build_membership
from coposos.polycore import SymMatrix
from coposos.sdpcore import SdpStatus, solve, solver
if sys.argv[1] == "before":
    import scipy.linalg
    solver.find_spec = None  # the loaded module is taken as it is, with no search
assert solve(build_membership(SymMatrix.identity(3), 1, ConeKind.K).sdp).status == SdpStatus.OPTIMAL
import scipy.linalg.lapack
flapack = solver._lapack()
assert flapack is sys.modules["scipy.linalg._flapack"]
assert flapack.dpotrf is scipy.linalg.lapack.dpotrf
assert flapack.dpotrs is scipy.linalg.lapack.dpotrs
"""


@pytest.mark.parametrize("order", ["before", "after"])
def test_the_solver_calls_scipy_lapack_routines(order):
    # the module loaded apart from scipy.linalg is the one scipy.linalg.lapack
    # exports from, whether scipy.linalg comes before the first solve or after
    proc = _fresh_python(_SAME_ROUTINES, order)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def unloaded_lapack(monkeypatch):
    """``solver._lapack`` with its cache and scipy's LAPACK module out of
    sight; both are back after the test."""
    solver = sdpcore.solver
    loaded = solver._lapack()
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    solver._lapack.cache_clear()
    yield solver
    monkeypatch.undo()
    solver._lapack.cache_clear()
    assert solver._lapack() is loaded


def test_a_missing_scipy_is_named(unloaded_lapack, monkeypatch):
    monkeypatch.setattr(unloaded_lapack, "find_spec", lambda name: None)
    with pytest.raises(ImportError) as err:
        unloaded_lapack._lapack()
    assert str(err.value) == "scipy is not installed; the solver loads scipy.linalg._flapack from it"


def test_a_missing_lapack_module_is_named(unloaded_lapack, monkeypatch, tmp_path):
    # a scipy package whose linalg folder holds no _flapack
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(unloaded_lapack, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError) as err:
        unloaded_lapack._lapack()
    assert str(err.value) == f"no scipy.linalg._flapack in {[f'{tmp_path}/linalg']}"


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def _cone_kind_branches(tree):
    """(function, line) of every comparison against a ConeKind member or its
    value, the function being the innermost enclosing one ("" at top level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if isinstance(node, ast.Compare):
            for side in [node.left, *node.comparators]:
                if (isinstance(side, ast.Attribute) and isinstance(side.value, ast.Name)
                        and side.value.id == "ConeKind") or (
                        isinstance(side, ast.Constant) and side.value in ("K", "Q")):
                    found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_only_gram_shape_tells_the_cone_kinds_apart():
    # every K/Q difference lives in GramShape.__init__; a kind branch
    # anywhere else is a second place to keep in step
    src = Path(coposos.__file__).resolve().parent
    branches = [(path.relative_to(src).as_posix(), where, line)
                for path in sorted(src.rglob("*.py"))
                for where, line in _cone_kind_branches(ast.parse(path.read_text()))]
    assert [b for b in branches if b[:2] != ("cones.py", "GramShape.__init__")] == []
    assert branches  # the one that is allowed is found


def _builder_constructors(tree):
    """The innermost enclosing function of every ``SdpBuilder(...)`` call."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "SdpBuilder"):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_one_gram_sdp_assembler():
    # every Gram SDP is a relaxation or a membership family; the sparse
    # exchange format reads a block SDP that has no Gram structure
    src = Path(coposos.__file__).resolve().parent
    makers = {f"{'.'.join(path.relative_to(src).with_suffix('').parts)}.{where}"
              for path in sorted(src.rglob("*.py"))
              for where in _builder_constructors(ast.parse(path.read_text()))}
    assert makers == {"relax.build_relaxation_sdp", "cones._membership_family",
                      "sdpcore.model.parse_sparse"}


def _unused_imports(tree):
    """(name, line) of every top-level import binding that the module never
    reads; a name listed in ``__all__`` counts as read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in bound.items() if name not in read)


def test_no_unused_top_level_imports():
    src = Path(coposos.__file__).resolve().parent
    unused = [(path.relative_to(src).as_posix(), *found)
              for path in sorted(src.rglob("*.py"))
              for found in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_unused_import_check_finds_one():
    tree = ast.parse("from __future__ import annotations\nimport itertools\n"
                     "import numpy as np\nfrom math import gcd, lcm\n"
                     "__all__ = ['lcm']\nx = np.zeros(gcd(4, 6))\n")
    assert _unused_imports(tree) == [("itertools", 2)]


def _references(tree):
    """name -> lines of every place a module refers to it: a name, an
    attribute, an import, or a word of a string constant that is not a
    docstring."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, ast.alias):
            words = re.findall(r"\w+", f"{node.name} {node.asname or ''}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            words = re.findall(r"\w+", node.value)
        else:
            continue
        for word in words:
            found.setdefault(word, []).append(node.lineno)
    return found


def _uncalled(trees, checked):
    """(module, name, line) of every non-dunder function and class defined
    in a module of ``checked`` that no module of ``trees`` (key -> parsed
    module) refers to outside the definition itself."""
    refs = {key: _references(tree) for key, tree in trees.items()}
    out = []
    for key in checked:
        for node in ast.walk(trees[key]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            if not any(where != key or not node.lineno <= line <= node.end_lineno
                       for where, found in refs.items() for line in found.get(node.name, ())):
                out.append((key, node.name, node.lineno))
    return sorted(out)


def _uncalled_src(*folders):
    """(path in the package, name, line) of every function and class of
    ``src/`` that no module of ``src/`` or of the repository ``folders``
    names."""
    src = Path(coposos.__file__).resolve().parent
    root = Path(__file__).resolve().parents[1]
    paths = [p for folder in (src, *(root / f for f in folders)) for p in folder.rglob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    return [(path.relative_to(src).as_posix(), name, line) for path, name, line
            in _uncalled(trees, [path for path in paths if path.is_relative_to(src)])]


def test_every_function_and_class_has_a_caller():
    # code that nothing in src/, tests/ or bench/ names is dead; the bench
    # tracer names the functions it wraps in strings
    assert _uncalled_src("tests", "bench") == []


def test_test_only_code_is_pinned():
    # src/ code that only tests call, pinned by name: a new entry is a
    # decision to make here, to wire the code in or delete it
    assert [(path, name) for path, name, _ in _uncalled_src("bench", "tools")] == [
        ("apps.py", "adjacency"),  # Graph.adjacency
        ("apps.py", "empty_graph"),
        ("apps.py", "paley_graph"),
        ("apps.py", "parse_graph"),
        ("apps.py", "sqp_bound"),
        ("cones.py", "from_text"),  # SosCertificate.from_text
        ("cones.py", "to_text"),  # SosCertificate.to_text
        ("polycore.py", "coeff"),  # Poly.coeff
        ("polycore.py", "total_degree"),  # Poly.total_degree
        ("sdpcore/model.py", "pack"),  # BlockSdp.pack
    ]


def test_uncalled_check_finds_one():
    trees = {"a": ast.parse('def loop():\n    """loop()"""\n    return loop()\n\n\n'
                            'class Used:\n    def __init__(self):\n        pass\n'),
             "b": ast.parse("import a\nx = 'a.Used'\n")}
    assert _uncalled(trees, ["a"]) == [("a", "loop", 1)]


# per workload, the first 16 hex digits that tools/solve_digest.py prints: a
# SHA-256 over the status, iteration count and x, y and s bytes of every solve
# of the benchmark's corpora, warm membership families included (numpy 2.4.6,
# OpenBLAS on x86-64, as the byte pins of test_sdp)
_WORKLOAD_DIGESTS = {"alpha-K": "50fc823988abdc96", "alpha-Q": "9f67d71d65e5093c",
                     "chi": "d482c9dadf1b5c58", "member": "04c4799588a8c811"}


def test_benchmark_solves_are_pinned():
    tool = Path(__file__).resolve().parents[1] / "tools" / "solve_digest.py"
    proc = subprocess.run([sys.executable, "-B", str(tool)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert dict(re.findall(r"^(\S+) +\d+ solves +(\w+)$", proc.stdout, re.M)) == _WORKLOAD_DIGESTS


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_member_calls_match_their_oracles(seed, monkeypatch):
    # every membership call of the benchmark corpus: the exact oracle holds,
    # a MEMBER certificate passes the exact audit at 1e-8 and a NOT_MEMBER
    # ray misses the cone by at most 1e-8
    workloads = _load_bench("workloads", monkeypatch)
    for call in workloads.build_calls("member", seed):
        call.prepare()
        result = call()
        assert not call.judge(result).reasons, call.ident
        if result.verdict is Verdict.MEMBER:
            assert validate_certificate(call.matrix, result.certificate, tol=1e-8).ok
        else:
            assert result.infeasibility_quality <= 1e-8
