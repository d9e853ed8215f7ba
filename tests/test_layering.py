"""Static checks of the package's module structure.

Package modules import each other at module top, so the dependency graph is
visible in one place and a cycle fails at import time rather than on some
later call; and every name a module exports through ``__all__`` exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tfqkd"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _function_local_package_imports(tree: ast.AST) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("tfqkd")):
                found.append(f"{fn.name}: from {'.' * node.level}"
                             f"{node.module or ''} import ...")
            elif isinstance(node, ast.Import):
                found += [f"{fn.name}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "tfqkd"]
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_function_local_package_imports(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    assert _function_local_package_imports(tree) == []


def test_the_check_sees_a_function_local_import():
    tree = ast.parse("def f():\n    from .montecarlo import detector_means\n")
    assert _function_local_package_imports(tree) == [
        "f: from .montecarlo import ..."]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(
        "tfqkd" if name == "__init__" else f"tfqkd.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
