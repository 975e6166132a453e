"""No module of the package or of its tests imports a name it never uses.

A stdlib ast scan of the kind a linter makes: every name an import
statement binds must be read somewhere in the same file.  __future__
imports and names listed in the module's __all__ (re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [*(ROOT / "src" / "gwharvest").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # A quoted annotation ("HarvestReport") reads the names inside it.
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in source that nothing in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = _used_names(tree) | _exported(tree)
    return [name for name in bound if name not in used]


def test_scan_finds_unused_and_exempts_future_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "from typing import Iterable\n"
        "__all__ = ['tau']\n"
        "def f(x: 'Iterable[int]') -> float:\n"
        "    return pi\n"
    )
    assert unused_imports(source) == ["os", "os", "js"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
