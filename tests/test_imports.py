"""Every name a module of the package imports is used in that module,
every module-level private name is read somewhere in the package, and no
module reads another object's private attributes.

The one exception to the first is a name that `pipebench/tracing.py`
patches on that module (its POINTS): the tracer replaces the attribute the
caller resolves, so a module may import a name only for the tracer to find
it there.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rewirebench").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level names with one leading underscore (functions, classes
    and assigned constants) that no other top-level statement of any of
    the sources reads, as a name or as an attribute."""
    defined, reads = {}, []
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            read = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            read |= {n.attr for n in ast.walk(stmt)
                     if isinstance(n, ast.Attribute)}
            reads.append(read)
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = len(reads) - 1
    return sorted(name for name, own in defined.items()
                  if not any(name in r for i, r in enumerate(reads)
                             if i != own))


def test_checker_finds_an_unread_private_name():
    a = ("_LIMIT = 3\n_unused_limit: int = 4\n__all__ = ['f']\n"
         "def _helper(x):\n    return _helper(x - 1) if x else _LIMIT\n"
         "def _orphan():\n    return _orphan()\nclass _Kept: pass\n"
         "def f(m):\n    return m._by_attribute()\n")
    b = ("from a import _helper, _Kept\n_x = _helper(1)\n"
         "def _by_attribute():\n    return _Kept\n")
    assert unread_private_names([a, b]) == ["_orphan", "_unused_limit", "_x"]


def test_every_private_name_is_read():
    unread = unread_private_names([p.read_text() for p in SOURCES])
    assert unread == [], f"private names defined but never read: {unread}"


def foreign_private_reads(source: str) -> list[str]:
    """Attributes with a leading underscore (dunders aside) read from
    anything but `self` or `cls`, as `line: expression`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (node.attr.startswith("__")
                         and node.attr.endswith("__"))
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_checker_finds_a_foreign_private_read():
    source = ("class A:\n    def f(self, op):\n        self._x = op._y\n"
              "        return cls._z, super().__init__, op.__dict__\n"
              "def g(m):\n    return m.kernel._matmat(m._inv)\n")
    assert foreign_private_reads(source) == [
        "3: op._y", "6: m.kernel._matmat", "6: m._inv"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_foreign_private_read(path):
    found = foreign_private_reads(path.read_text())
    assert found == [], f"{path.name} reads private attributes: {found}"
