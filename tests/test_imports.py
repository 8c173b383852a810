"""Every name a module of the package imports is used in that module.

The one exception is a name that `pipebench/tracing.py` patches on that
module (its POINTS): the tracer replaces the attribute the caller resolves,
so a module may import a name only for the tracer to find it there.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "rewirebench").glob("*.py")
                 if p.name != "__init__.py")


def traced_attributes():
    """(module, attribute) pairs that pipebench's tracer patches."""
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "pipebench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(short, attr) for _, modules, attr, _ in tracing.POINTS
            for short in modules}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "import scipy.sparse as sp\nimport scipy.linalg\n"
              "from x import (a, b as c)\nprint(sys, c, scipy.linalg)\n")
    assert unused_imports(source) == ["a", "os", "sp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    allowed = {attr for module, attr in traced_attributes()
               if module == path.stem}
    unused = [n for n in unused_imports(path.read_text()) if n not in allowed]
    assert unused == [], f"{path.name} imports {unused} without using them"
