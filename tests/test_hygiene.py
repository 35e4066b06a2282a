"""Source hygiene: no module-level import that the module never uses, no top-level function or class of the
package that nothing else names, and no export that the package lacks."""

import ast
from pathlib import Path

import pytest

import hypersep

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypersep"
FILES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _all_entries(statements) -> set[str]:
    """The strings listed in an __all__ assignment among statements."""
    return {elt.value for node in statements if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets) for elt in node.value.elts}


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _all_entries(tree.body)
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def _mentions(stmt) -> set[str]:
    """Every name, attribute, imported name and __all__ entry in a top-level statement."""
    names = _all_entries([stmt])
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def unused_definitions(sources: dict[str, str], defining: set[str]) -> list[str]:
    """Top-level functions and classes of the `defining` sources that no top-level statement but their own, in
    any source, mentions."""
    statements = {(path, i): stmt for path, source in sources.items()
                  for i, stmt in enumerate(ast.parse(source).body)}
    mentions = {key: _mentions(stmt) for key, stmt in statements.items()}
    return [f"{path}: {stmt.name}" for (path, i), stmt in statements.items()
            if path in defining and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not any(stmt.name in names for key, names in mentions.items() if key != (path, i))]


def test_checker_finds_an_unused_definition():
    sources = {
        "pkg.py": "def used(): pass\ndef recursive(): return recursive()\nclass Exported: pass\n"
                  "class Unused: pass\n__all__ = ['Exported']\n",
        "user.py": "from pkg import used as alias\nimport pkg\npkg.attr.nested\n",
        "other.py": "def attr(): pass\n",
    }
    assert unused_definitions(sources, {"pkg.py", "other.py"}) == ["pkg.py: recursive", "pkg.py: Unused"]


def test_no_unused_definitions():
    """Every top-level function or class of the package is named by src/, tests/ or perfbench/."""
    paths = [p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py")]
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    assert unused_definitions(sources, {str(p.relative_to(ROOT)) for p in PACKAGE.glob("*.py")}) == []


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n"
    assert unused_imports(source) == ["line 2: system", "line 3: dumps"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_export_exists():
    """A name left in __all__ after its definition is deleted breaks `from hypersep import *`."""
    assert [name for name in hypersep.__all__ if not hasattr(hypersep, name)] == []
