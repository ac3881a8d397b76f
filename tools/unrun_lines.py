"""List the lines of src/helibend that the tests never run.

Usage: python tools/unrun_lines.py [PYTEST_ARGS...]

Runs pytest in this process (by default on the tier-1 suite, tests/) under a
sys.settrace line tracer restricted to src/helibend, then prints
``file:line: source`` for every executable line, as the code objects'
co_lines give them, that never ran. Lines of a def or class statement,
decorators, imports and docstrings are skipped. Exits with pytest's status.

Forked children (parallel._serve, and the pickling a child does to send its
result back) are not traced: a line that only a child runs is listed.

Standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "helibend"


def _skipped(tree: ast.Module) -> set[int]:
    """The def, class, decorator, import and docstring lines of a module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not isinstance(node, ast.Module):
            for decorator in node.decorator_list:
                lines.update(range(decorator.lineno, decorator.end_lineno + 1))
            lines.update(range(node.lineno, node.body[0].lineno))
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable_lines(path: Path) -> list[int]:
    """The lines of a source file that some bytecode belongs to, less the
    skipped ones (and line 0, which a module's first instruction takes)."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return sorted(lines - _skipped(ast.parse(source)))


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}
    keys: dict[str, str | None] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[keys[frame.f_code.co_filename]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keys:
            real = os.path.realpath(name)
            keys[name] = real if real in ran else None
        return trace_lines if keys[name] else None

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    count = 0
    for name, seen in ran.items():
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in executable_lines(path):
            if line not in seen:
                count += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{count} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
