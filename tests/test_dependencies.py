"""The runtime needs numpy alone: scipy and numpy.polynomial are test-only references."""

import ast
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import cvshadow

PACKAGE = Path(cvshadow.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
BENCH = PACKAGE.parents[1] / "bench"
README = PACKAGE.parents[1] / "README.md"


def imported_roots(path: Path) -> set[str]:
    """Top-level names of every module ``path`` imports, in any scope."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    assert [m.name for m in modules if "scipy" in imported_roots(m)] == []


def reads_numpy_polynomial(path: Path) -> bool:
    """Whether ``path`` imports ``numpy.polynomial`` or reads any ``.polynomial`` attribute."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "polynomial":
            return True
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.startswith("numpy.polynomial") for name in names):
            return True
    return False


def test_no_module_reads_numpy_polynomial():
    # shadows._gauss_legendre is the one Gauss-Legendre rule of the package
    modules = sorted(PACKAGE.glob("*.py"))
    assert [m.name for m in modules if reads_numpy_polynomial(m)] == []


def test_runtime_dependencies_are_numpy_only():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert [dep.split(">")[0].strip() for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def unread_imports(path: Path) -> list[str]:
    """Names that ``path`` imports, ``from __future__`` aside, but never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export
    modules = sorted(m for m in PACKAGE.glob("*.py") if m.name != "__init__.py")
    unread = {m.name: unread_imports(m) for m in modules}
    assert {name: names for name, names in unread.items() if names} == {}


def public_names(path: Path) -> list[str]:
    """Top-level functions, classes and constants of ``path`` not named with a ``_``."""
    names = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def read_names(path: Path) -> set[str]:
    """Every name ``path`` loads, every attribute it reads and every string constant."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def public_members(path: Path) -> list[str]:
    """``Class.name`` of each public method and property of the classes of ``path``."""
    members = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            members += [f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")]
    return members


def attribute_reads(path: Path) -> set[str]:
    """Every attribute name ``path`` reads, as in ``obj.name``."""
    tree = ast.parse(path.read_text(), str(path))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_public_name_has_a_reader():
    # a test is no reader: code that only tests call belongs in tests/conftest.py;
    # string constants count, since bench/spans.py binds functions by name; a
    # method or property counts as read where any attribute of its name is
    modules = sorted(m for m in PACKAGE.glob("*.py") if m.name != "__init__.py")
    benches = sorted(BENCH.glob("*.py"))
    assert benches
    read = set().union(*(read_names(path) for path in modules + benches))
    unread = {m.name: [n for n in public_names(m) if n not in read] for m in modules}
    assert {name: names for name, names in unread.items() if names} == {}
    attrs = set().union(*(attribute_reads(path) for path in modules + benches))
    unread = {m.name: [n for n in public_members(m) if n.split(".")[1] not in attrs]
              for m in modules}
    assert {name: names for name, names in unread.items() if names} == {}


def run_time_asserts(path: Path) -> list[int]:
    """Lines of ``path`` holding an ``assert`` statement or a ``raise AssertionError``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
        elif isinstance(node, ast.Assert):
            lines.append(node.lineno)
    return lines


def test_no_module_asserts_at_run_time():
    # a cross-check of the package's own closed forms is a test: it belongs
    # in tests/, and a failed input check raises ValueError
    modules = sorted(PACKAGE.glob("*.py"))
    found = {m.name: run_time_asserts(m) for m in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_readme_quick_start_runs():
    # the first python block of README.md, run as a user would paste it: the
    # exports it imports exist and it prints two finite numbers
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    values = [float(v) for v in proc.stdout.split()]
    assert len(values) == 2 and all(math.isfinite(v) for v in values)
