"""Module layering: each module of the package imports only modules below
it, and nothing outside the standard library but numpy; the tests import
nothing pyproject.toml does not declare; the package exports each public
name from the module that defines it; and every layer boundary the
benchmark traces still exists."""

import ast
import importlib
import re
import sys
import types
from pathlib import Path

import pytest

import stabindex
from stabindex import kernels

# Lowest layer first.  The package's __init__ re-exports every layer and is
# not part of the order.
ORDER = [
    "kernels", "models", "montecarlo", "constraints", "refine", "verify",
    "cli", "__main__",
]
SRC = Path(stabindex.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PERFBENCH = ROOT / "perfbench"


def _imports(path: Path) -> set:
    """Dotted names of the modules a source file imports; a relative import
    reads as stabindex.<module>."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.add(node.module)
            elif node.module is None:  # from . import verify
                found.update(f"stabindex.{alias.name}" for alias in node.names)
            else:
                found.add(f"stabindex.{node.module}")
    return found


def _package_imports(path: Path) -> set:
    """Names of the stabindex modules a source file imports."""
    return {
        name.split(".")[1] for name in _imports(path) if name.startswith("stabindex.")
    }


def test_every_module_is_ordered():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_imports_point_down_the_order():
    upward = {
        module: sorted(
            imp for imp in _package_imports(SRC / f"{module}.py")
            if ORDER.index(imp) >= ORDER.index(module)
        )
        for module in ORDER
    }
    assert {m: imps for m, imps in upward.items() if imps} == {}


def _foreign_imports(paths, allowed: set) -> dict:
    """File name -> the top-level modules it imports outside allowed, for
    each file that imports any."""
    foreign = {
        path.name: sorted({name.split(".")[0] for name in _imports(path)} - allowed)
        for path in sorted(paths)
    }
    return {name: imps for name, imps in foreign.items() if imps}


def test_runtime_dependency_is_numpy_only():
    allowed = set(sys.stdlib_module_names) | {"numpy", "stabindex"}
    assert _foreign_imports(SRC.glob("*.py"), allowed) == {}


def test_test_dependencies_are_declared():
    """Every module a test imports comes from the standard library, the
    package, tests/ itself, or a requirement pyproject.toml declares: a
    runtime dependency or the `test` extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[\w.-]+", req).group().replace("-", "_").lower()
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    allowed = (set(sys.stdlib_module_names) | {"stabindex"} | declared
               | {path.stem for path in TESTS.glob("*.py")})
    assert _foreign_imports(TESTS.glob("*.py"), allowed) == {}


def _defined_names(path: Path) -> set:
    """Names a source file defines at top level (not the ones it imports)."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_public_names_come_from_their_owners():
    """__all__ lists exactly the public non-module names __init__ binds,
    plus __version__, and each is imported from the module defining it."""
    bound = {
        name for name, value in vars(stabindex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(stabindex.__all__)) == len(stabindex.__all__)
    assert set(stabindex.__all__) == bound | {"__version__"}
    owners = {
        alias.name: node.module
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert set(owners) == bound
    misplaced = sorted(
        name for name, module in owners.items()
        if name not in _defined_names(SRC / f"{module}.py")
        or getattr(importlib.import_module(f"stabindex.{module}"), name)
        is not getattr(stabindex, name)
    )
    assert misplaced == []


def _kernel_entry_points() -> set:
    """The kernels.<name> attributes models.batch_indices uses."""
    tree = ast.parse((SRC / "models.py").read_text())
    func = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "batch_indices"
    )
    return {
        node.attr for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "kernels"
    }


def test_benchmark_trace_seams_exist(monkeypatch):
    """The benchmark's per-layer times come from wrapping the names in
    perfbench/layers.py BOUNDARIES; a missing one is skipped with only a
    printed note, so its span would silently vanish.  The wrapped kernels
    must be exactly those batch_indices calls: an unwrapped one would count
    its time as models', and a wrapped helper called once per column block
    would add spans that inflate trace.overhead_frac."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in layers.BOUNDARIES
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
    wrapped = {attr for owner, attr, _ in layers.BOUNDARIES if owner is kernels}
    entry_points = _kernel_entry_points()
    assert entry_points
    assert wrapped == entry_points
