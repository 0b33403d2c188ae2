"""Count the lines of each module of src/stabindex: all of them, and the
code lines among them.

A code line is one that is not blank, not a comment and not part of a
docstring (a module, class or function docstring, found with ast).
Trimming prose changes the first count but not the second, so the two
together tell a change that removes code from one that removes words.
Standard library only; pytest does not collect it.

    python tests/code_lines.py [SRC_DIR]
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stabindex"


def docstring_lines(tree):
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(all lines, code lines) of one source file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in skip
    )
    return len(lines), code


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else SRC
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(src.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv)
