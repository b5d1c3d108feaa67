"""Every name a package module imports, and every private name it defines at
module level, is used in that module.

`__init__.py` imports to re-export, so it is left out. A name counts as used
when it appears as a name anywhere in the module's code or annotations.
Only `cores` imports a thread pool: `cores.Tasks` runs every call's threads.
"""

import ast
from pathlib import Path

import pytest

import bratskit

MODULES = sorted(p for p in Path(bratskit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_names(source):
    """(line, name) of each module-level `_name` (not a dunder) bound by a def,
    class or assignment that no expression of the module reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                  and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport numpy.linalg\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == [(1, "field"), (2, "numpy")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_private_name_is_read(path):
    assert unused_private_names(path.read_text()) == []


def test_guard_finds_an_unused_private_name():
    source = ("_LIMIT = 3\n_USED, _spare = 1, 2\n__all__ = []\n\n"
              "def _paint():\n    pass\n\nclass _Box:\n    pass\n\n"
              "def public(x: _Box):\n    return _USED\n")
    assert unused_private_names(source) == [(1, "_LIMIT"), (2, "_spare"), (5, "_paint")]


def imported_names(source):
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_only_cores_imports_a_thread_pool():
    importers = [p.stem for p in MODULES if "ThreadPoolExecutor" in imported_names(p.read_text())]
    assert importers == ["cores"]
