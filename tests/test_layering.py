"""Static checks of the package's module structure.

Package modules import each other at module top, so the dependency graph is
visible in one place and a cycle fails at import time rather than on some
later call; every module-level import is read or re-exported through
``__all__``; every package import points down the layers (physics and
statistics, then the samplers and the decoy analysis, then the forward model
and key rate, then the CLI); every name a module exports through
``__all__`` exists; and every layer the benchmark tracer wraps by module
attribute resolves to a callable.
"""

import ast
import importlib
from pathlib import Path

import pytest

import tfqkd

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tfqkd"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
RANK = {"finitestats": 0, "model": 0, "aopp": 0, "bounds": 1, "decoy": 1,
        "montecarlo": 2, "keyrate": 3, "cli": 4, "__init__": 5}


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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads and
    does not re-export through ``__all__``."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["__all__"]):
            exported = set(ast.literal_eval(node.value))
    return sorted(name for name in bound
                  if name not in read and name not in exported)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    assert _unused_imports(tree) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from dataclasses import dataclass, field\n"
                     "from . import model\n"
                     "__all__ = ['model']\n"
                     "x: np.ndarray = os.sep\n"
                     "@dataclass\n"
                     "class C:\n"
                     "    pass\n")
    assert _unused_imports(tree) == ["field"]


def _package_imports(tree: ast.AST) -> set[str]:
    """Package modules a module imports, by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                top, _, module = module.partition(".")
                if top != "tfqkd":
                    continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("tfqkd."))
    return found


def _upward_imports(name: str, tree: ast.AST) -> list[str]:
    return sorted(m for m in _package_imports(tree)
                  if RANK[m] >= RANK[name])


def test_every_module_has_a_rank():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("name", MODULES)
def test_imports_point_down_the_layers(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    assert _upward_imports(name, tree) == []


def test_the_check_sees_an_upward_import():
    tree = ast.parse("from .keyrate import expected_rates_model\n"
                     "from . import cli, finitestats\n"
                     "import tfqkd.decoy\n")
    assert _upward_imports("decoy", tree) == ["cli", "decoy", "keyrate"]
    assert _upward_imports("cli", tree) == ["cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(
        "tfqkd" if name == "__init__" else f"tfqkd.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


BENCH_TRACING = PACKAGE.parents[1] / "bench" / "tracing.py"


def _wrapped_targets() -> list[tuple[str, str]]:
    """(module, attribute) pairs of the benchmark tracer's ``WRAPPED``
    table, read from its source without importing it."""
    tree = ast.parse(BENCH_TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["WRAPPED"]):
            return [tuple(entry)[:2] for entry in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no WRAPPED table")


def test_every_traced_layer_resolves():
    # The tracer swaps these module attributes for timing wrappers; one
    # that no longer exists or is not callable breaks a traced run.
    targets = _wrapped_targets()
    assert ("montecarlo", "filter_deadtime") in targets
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(getattr(tfqkd, mod, None), attr, None))]
    assert missing == []
