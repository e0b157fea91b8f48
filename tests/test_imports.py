"""Every module-level import in the package source is used, and so is
every module-level private name.

No linter ships with the project, so this is its unused-import check.  A
package `__init__.py` imports to re-export and is skipped; an import whose
first line carries `# noqa: F401` is kept on purpose (a name other code
rebinds by module) and is skipped too.  A private name (one leading
underscore) defined at module level must be referenced somewhere in the
package beyond its definition: tests do not count, so a helper orphaned by
a deletion fails here.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "levypide"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used | exported)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\n"
              "from os import path, sep  # noqa: F401\n"
              "from typing import Callable\n"
              "__all__ = ['Callable']\n"
              "x = np.pi\n")
    assert _unused_imports(source) == ["math (line 2)"]


def _unreferenced_private_names(sources: dict) -> list[str]:
    """module.name for each module-level private name of the sources that
    no source reads: as a name, an attribute or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


def test_every_private_name_is_referenced_in_the_package():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert _unreferenced_private_names(sources) == []


def test_the_check_finds_an_orphaned_private_name():
    sources = {
        "a": ("_LIMIT = 3\n_unused = 4\n"
              "def _helper(x):\n    return x + _LIMIT\n"
              "def _orphan():\n    return 0\n"
              "class _Box:\n    pass\n"),
        "b": "from .a import _helper\nimport a\nVALUE = _helper(1) + a._Box\n",
    }
    assert _unreferenced_private_names(sources) == ["a._orphan", "a._unused"]
