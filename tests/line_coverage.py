"""List the lines of src/stabindex that the tier-1 suite never runs.

Runs the suite through pytest.main under a line tracer (sys.settrace, and
threading.settrace for the shard pool's threads) that records lines in
src/stabindex only, then prints, module by module, the executable lines
that never ran: the lines of each module's code objects (co_lines), its
docstrings skipped.  Standard library only; pytest does not collect it.

The tests that measure memory with tracemalloc are deselected, and named:
tracemalloc counts the tracer's frames too, so their bounds fail under it.
Lines run only in a forked child or another interpreter are not seen.
Under the tracer the suite runs about twice as long (68 s against 30 s on
a 2-core x86 VM).

    python tests/line_coverage.py [PYTEST_ARGS...]
"""

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stabindex"
sys.path.insert(0, str(SRC.parent))

from code_lines import docstring_lines  # noqa: E402

seen = set()  # (file name, line) pairs that ran


def _local(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _names(func):
    return {name for code in _code_objects(func.__code__) for name in code.co_names}


def _uses_tracemalloc(func, checked):
    """Whether func, or a function of its module that it names, names
    tracemalloc."""
    checked.add(func)
    names = _names(func)
    if "tracemalloc" in names:
        return True
    helpers = (func.__globals__.get(name) for name in names)
    return any(
        isinstance(g, types.FunctionType) and g.__module__ == func.__module__
        and g not in checked and _uses_tracemalloc(g, checked)
        for g in helpers
    )


class _DeselectTracemalloc:
    def __init__(self):
        self.names = []

    def pytest_collection_modifyitems(self, config, items):
        keep = []
        for item in items:
            func = getattr(item, "function", None)
            if func is not None and _uses_tracemalloc(func, set()):
                self.names.append(item.nodeid)
            else:
                keep.append(item)
        config.hook.pytest_deselected(items=[i for i in items if i not in keep])
        items[:] = keep


def _ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def unrun_lines(path):
    """The executable lines of one module that never ran, and how many
    executable lines it has."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    lines = {
        line
        for code in _code_objects(compile(text, str(path), "exec"))
        for _, _, line in code.co_lines()
        if line and line not in skip  # line 0 is a module's own entry
    }
    ran = {line for name, line in seen if name == str(path)}
    return lines - ran, len(lines)


def main(args):
    plugin = _DeselectTracemalloc()
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args],
                             plugins=[plugin])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\ndeselected {len(plugin.names)} tests that use tracemalloc:")
    for name in plugin.names:
        print(f"  {name}")
    print("\nexecutable lines never run:")
    for path in sorted(SRC.glob("*.py")):
        missed, total = unrun_lines(path)
        print(f"{path.name:<16} {len(missed):>4} of {total:>4}  {_ranges(missed)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
