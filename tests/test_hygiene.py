"""Source hygiene: no module-level import that the module never uses, and no export that the package lacks."""

import ast
from pathlib import Path

import pytest

import hypersep

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "hypersep").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no expression and no __all__ entry uses."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n"
    assert unused_imports(source) == ["line 2: system", "line 3: dumps"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_export_exists():
    """A name left in __all__ after its definition is deleted breaks `from hypersep import *`."""
    assert [name for name in hypersep.__all__ if not hasattr(hypersep, name)] == []
