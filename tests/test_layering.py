"""Module layering: each module of the package imports only modules below
it, and nothing outside the standard library but numpy; and every layer
boundary the benchmark traces still exists."""

import ast
import importlib
import sys
from pathlib import Path

import stabindex
from stabindex import kernels

# Lowest layer first.  The package's __init__ re-exports every layer and is
# not part of the order.
ORDER = [
    "kernels", "polyroot", "models", "montecarlo", "constraints",
    "refine", "verify", "cli", "__main__",
]
SRC = Path(stabindex.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_runtime_dependency_is_numpy_only():
    allowed = set(sys.stdlib_module_names) | {"numpy", "stabindex"}
    foreign = {
        path.name: sorted({name.split(".")[0] for name in _imports(path)} - allowed)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: imps for name, imps in foreign.items() if imps} == {}


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
