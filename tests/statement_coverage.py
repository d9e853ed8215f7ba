"""Statements of the tfqkd package that the Tier-1 suite never runs.

    python tests/statement_coverage.py [PYTEST_ARGS ...]

Runs the suite (``tests/``, or PYTEST_ARGS) in this process under
``sys.settrace`` and prints, module by module, each statement of
``src/tfqkd`` that no test reached: its line and its first line of source.
Standard library only; the coverage package is not needed.

A statement counts as run when a line event lands on one of its own lines
(its span less the spans of the statements nested in it) or when a
statement nested in it ran.  Docstrings, ``nonlocal`` / ``global``
declarations (they compile to no code) and the ``if __name__ ==
"__main__"`` guard are not counted.  Exits with pytest's status.  pytest
does not collect this file.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tfqkd"
_BODIES = ("body", "orelse", "finalbody")


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (node is getattr(parent, "body", [None])[0]
            and isinstance(parent, (ast.Module, ast.ClassDef,
                                    ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_main_guard(node: ast.stmt) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__")


def _children(node: ast.AST) -> list[ast.stmt]:
    """Statements nested directly in ``node``, handlers' bodies included."""
    kids = [s for name in _BODIES for s in getattr(node, name, [])]
    for name in ("handlers", "cases"):
        kids.extend(s for holder in getattr(node, name, [])
                    for s in holder.body)
    return kids


def _span(node: ast.stmt) -> set[int]:
    first = min([node.lineno,
                 *(d.lineno for d in getattr(node, "decorator_list", []))])
    return set(range(first, node.end_lineno + 1))


def missed_statements(path: Path, hits: set[int]) -> list[int]:
    """First lines of the counted statements of one module that never ran."""
    missed: list[int] = []

    def ran(node: ast.stmt) -> bool:
        kids = [k for k in _children(node) if not _is_docstring(k, node)]
        own = _span(node).difference(*(_span(k) for k in kids))
        kids_ran = [ran(k) for k in kids
                    if not isinstance(k, (ast.Global, ast.Nonlocal))]
        done = bool(own & hits) or any(kids_ran)
        if not done:
            missed.append(node.lineno)
        return done

    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if not (_is_docstring(node, tree) or _is_main_guard(node)):
            ran(node)
    return sorted(missed)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    modules = sorted(PACKAGE.glob("*.py"))
    hits = {str(p): set() for p in modules}
    resolved: dict[str, set | None] = {}

    def lines_of(filename: str):
        if filename not in resolved:
            resolved[filename] = hits.get(os.path.realpath(filename))
        return resolved[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    print()
    for path in modules:
        source = path.read_text().splitlines()
        missed = missed_statements(path, hits[str(path)])
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} statements never ran")
        for line in missed:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"total: {total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
