"""Module layering: each module of the package imports only modules below it."""

import ast
from pathlib import Path

import stabindex

# Lowest layer first.  The package's __init__ re-exports every layer and is
# not part of the order.
ORDER = [
    "kernels", "polyroot", "models", "montecarlo", "constraints",
    "refine", "verify", "cli", "__main__",
]
SRC = Path(stabindex.__file__).resolve().parent


def _package_imports(path: Path) -> set:
    """Names of the stabindex modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                names = [node.module]
            elif node.module is None:  # from . import verify
                names = [f"stabindex.{alias.name}" for alias in node.names]
            else:
                names = [f"stabindex.{node.module}"]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "stabindex" and len(parts) > 1:
                found.add(parts[1])
    return found


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
