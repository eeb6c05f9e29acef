#!/usr/bin/env python3
"""List the statements of ``src/core`` that the tier-1 tests never run.

Runs pytest in this process (the arguments go to pytest; default ``-q tests``) under a line
tracer, installed with ``sys.settrace`` and ``threading.settrace`` so that the worker threads of
``core run`` are traced too. The tracer records line events only in frames whose code lies
under ``src/core``. Then each module is parsed with ``ast``, and every statement (docstrings
excluded) none of whose own lines ran is printed as ``<path under src/core>:<line>`` and its
source line. A compound statement's own lines are its decorators and its header, up to the
first statement of its body. Last comes the line total of ``src/`` (as ``wc -l`` counts it).

Code that runs only in a subprocess, such as the ``sys.exit(main())`` entry lines, is never
seen. The script uses the standard library and pytest only, and it gates nothing: it exits 0
whatever the tests do.

Usage: python scripts/statement_coverage.py [PYTEST_ARGS...]
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORE = SRC / "core"


def own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` outside the statements nested in it."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(first, node.end_lineno + 1)


def statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement of ``tree`` in source order, without the docstrings."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    found = [n for n in ast.walk(tree) if isinstance(n, ast.stmt) and n not in docstrings]
    return sorted(found, key=lambda n: (n.lineno, n.col_offset))


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with the tracer on; return its exit code and the lines run in each file under ``CORE``."""
    import pytest

    prefix = f"{CORE}/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(SRC))
    code, ran = run_traced(args or ["-q", str(ROOT / "tests")])
    never, total = 0, 0
    print(f"\npytest exit code {code}; statements of src/core never run:")
    for path in sorted(CORE.rglob("*.py")):
        source = path.read_text()
        lines, done = source.splitlines(), ran.get(str(path), set())
        for node in statements(ast.parse(source)):
            total += 1
            if done.isdisjoint(own_lines(node)):
                never += 1
                print(f"{path.relative_to(CORE)}:{node.lineno}  {lines[node.lineno - 1].strip()}")
    src_lines = sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))
    print(f"{never} of {total} statements never ran; src/ has {src_lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
