"""Every name a package module imports is used in that module.

`__init__.py` imports to re-export, so it is left out. A name counts as used
when it appears as a name anywhere in the module's code or annotations.
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


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport numpy.linalg\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == [(1, "field"), (2, "numpy")]
