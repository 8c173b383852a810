"""Every name a module of the package imports is used in that module,
every module-level private name is read somewhere in the package, no
module reads another object's private attributes, and every function of
the package is entered by some command.

The one exception to the first is a name that `pipebench/tracing.py`
patches on that module (its POINTS): the tracer replaces the attribute the
caller resolves, so a module may import a name only for the tracer to find
it there. The only exceptions to the last are the functions pipebench's
sources read, found the same way.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_datasets import write_canonical

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rewirebench"
SOURCES = sorted(PACKAGE.glob("*.py"))
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


# ---------------------------------------------------------------------------
# reach: every function of the package is entered by some command

def defined_functions(package: Path) -> dict:
    """{(module, first line): "module.qualname"} for every function and
    method of the package's modules, nested ones included; the first line
    is the first decorator's, as a code object counts it."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                name = prefix + child.name
                found[(module, first)] = f"{module}.{name}"
                visit(child, module, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)
    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


# run in a fresh interpreter: argv[1] is the package directory, argv[2] the
# statements to run; prints the (module, first line) of each code object of
# the package entered on any thread as its last line
_PROFILED_RUN = """
import json, os, sys, threading
package = os.path.realpath(sys.argv[1])
inside, entered = {}, set()

def profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    ours = inside.get(code.co_filename)
    if ours is None:
        ours = inside[code.co_filename] = (
            os.path.dirname(os.path.realpath(code.co_filename)) == package)
    if ours:
        entered.add((os.path.basename(code.co_filename)[:-3],
                     code.co_firstlineno))

threading.setprofile(profile)   # worker threads started from here on
sys.setprofile(profile)
exec(sys.argv[2], {})
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def unreached_functions(package: Path, statements: str,
                        exempt=frozenset()) -> list[str]:
    """Functions of `package` (as defined_functions names them) that
    running `statements` in a fresh interpreter never enters, on the main
    thread or any thread it starts, less the names in `exempt`. A fresh
    process, because a cached function's body runs once per process."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROFILED_RUN, str(package), statements],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(package.parent),
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout.splitlines()[-1])}
    return sorted(name for key, name in defined_functions(package).items()
                  if key not in entered and name not in exempt)


def test_checker_finds_an_unreached_function(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "import functools, threading\n"
        "def entered():\n    return 1\n"
        "def on_worker():\n    return 2\n"
        "def never():\n    return 3\n"
        "@functools.cache\ndef cached():\n    return 4\n"
        "class Box:\n    @property\n    def size(self):\n        return 5\n"
        "    def unused(self):\n        def inner():\n            pass\n"
        "def run():\n    entered()\n    cached()\n    Box().size\n"
        "    t = threading.Thread(target=on_worker)\n    t.start()\n"
        "    t.join()\n")
    got = unreached_functions(package, "from toy import mod\nmod.run()")
    assert got == ["mod.Box.unused", "mod.Box.unused.inner", "mod.never"]
    assert unreached_functions(package, "from toy import mod\nmod.run()",
                               {"mod.never", "mod.Box.unused"}) == [
        "mod.Box.unused.inner"]


def pipebench_reads() -> set[str]:
    """Functions of the package, named as defined_functions names them,
    that pipebench's sources read: what its tracer patches (POINTS), and
    each attribute read from a package module that a pipebench file
    imports. A name read from the package's namespace is resolved to the
    function it holds, so `rewiring.heat_kernel` names spectral.heat_kernel."""
    dotted = {f"rewirebench.{m}.{attr}" for m, attr in traced_attributes()}
    for path in sorted((ROOT / "pipebench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname, a.name) for a in node.names
                             if a.asname and a.name.startswith("rewirebench"))
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "rewirebench"):
                bound.update((a.asname or a.name, f"{node.module}.{a.name}")
                             for a in node.names)
        dotted |= set(bound.values())
        dotted |= {f"{bound[n.value.id]}.{n.attr}" for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id in bound}
    names = set()
    for name in dotted:
        module, _, attr = name.rpartition(".")
        try:
            obj = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            continue   # a module itself, or not a package attribute
        if inspect.isfunction(obj):
            names.add(f"{obj.__module__.split('.')[-1]}.{obj.__qualname__}")
    return names


def write_command_data(root: Path) -> dict:
    """The datasets of the command matrix, by role: a node task above the
    dense PageRank size and the exact spectral-radius cap, a graph
    collection, a TU-format collection, an unbalanced binary node task, and
    a collection with node labels but no graph_labels.csv."""
    spec = importlib.util.spec_from_file_location(
        "generate", ROOT / "pipebench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    rng = np.random.default_rng(0)
    generate.sbm_node_task(str(root / "sbm"), 0, nodes=300, edges=600,
                           classes=3, features=12)
    generate.graph_collection(str(root / "collection"), 0, graphs=10,
                              min_nodes=6, max_nodes=12)
    n = 40
    write_canonical(root / "unbalanced",
                    [(i, (i + k) % n) for i in range(n) for k in (1, 7)],
                    rng.normal(size=(n, 3)),
                    labels=(np.arange(n) % 4 == 0).astype(int))
    write_canonical(root / "majority",
                    [(4 * g + i, 4 * g + (i + 1) % 4)
                     for g in range(10) for i in range(4)],
                    rng.normal(size=(40, 2)), labels=rng.integers(0, 2, 40),
                    graph_ids=np.repeat(np.arange(10), 4))
    tu = root / "TOY"
    tu.mkdir()
    sizes = 3 + np.arange(10) % 3          # cycles, nodes numbered from 1
    starts = 1 + np.cumsum(sizes) - sizes
    (tu / "TOY_A.txt").write_text("".join(
        f"{s + i}, {s + (i + 1) % k}\n{s + (i + 1) % k}, {s + i}\n"
        for s, k in zip(starts, sizes) for i in range(k)))
    (tu / "TOY_graph_indicator.txt").write_text("".join(
        f"{g + 1}\n" for g, k in enumerate(sizes) for _ in range(k)))
    (tu / "TOY_graph_labels.txt").write_text("".join(
        f"{1 if g % 2 else -1}\n" for g in range(10)))
    (tu / "TOY_node_labels.txt").write_text("".join(
        f"{i % 2}\n" for i in range(sizes.sum())))
    (root / "config.txt").write_text("model=sgc\ngrid=tiny\njobs=1\n")
    return {name: str(root / name) for name in
            ("sbm", "collection", "unbalanced", "majority", "TOY",
             "config.txt")}


def command_matrix(data: dict, out: str) -> list[list[str]]:
    """stats, rewire and run for every method and both models, each kind
    of input once, and one config file."""
    methods = ("baseline", "heat", "pagerank", "sdrf", "grlef", "egp",
               "diffwire")
    run = ["--grid", "tiny", "--jobs", "2", "--out", out]
    sbm, coll, tu = (["--dataset", data["sbm"]],
                     ["--dataset", data["collection"]],
                     ["--dataset", data["TOY"], "--format", "tudataset"])
    return [["stats", *sbm, "--out", out],
            *(["rewire", *sbm, "--rewire", m, "--out", out]
              for m in methods),
            *(["run", *sbm, "--model", model, "--rewire", m, *run]
              for model in ("sgc", "gesn") for m in methods),
            ["stats", *coll],
            *(["run", *coll, "--model", "gesn", "--rewire", m, *run]
              for m in methods if m not in ("heat", "pagerank")),
            ["stats", *tu],
            ["run", *tu, "--model", "gesn", *run],
            ["--config", data["config.txt"], "run", "--dataset",
             data["unbalanced"], "--out", out],
            ["stats", "--dataset", data["majority"]]]


def test_every_function_is_reached_by_a_command(tmp_path):
    matrix = command_matrix(write_command_data(tmp_path),
                            str(tmp_path / "out"))
    statements = ("import contextlib, io\n"
                  "from rewirebench.cli import main\n"
                  f"for argv in {matrix!r}:\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        assert main(argv) == 0, argv\n")
    exempt = pipebench_reads()
    unreached = unreached_functions(PACKAGE, statements, exempt)
    assert unreached == [], (
        f"no command enters {unreached}; pipebench reads {sorted(exempt)}")
