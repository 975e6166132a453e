"""No module of the package or of its tests imports a name it never uses,
and no module of the package keeps a private helper that nothing reads.

Stdlib ast scans of the kind a linter makes: every name an import
statement binds must be read somewhere in the same file.  __future__
imports and names listed in the module's __all__ (re-exports) are exempt.
Every module-level private function, class or constant of the package
(one leading underscore) must be read by some module of the package or
of its tests: by name, as an attribute, or through an import.
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


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _read_names(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            read |= _read_names(ast.parse(ann.value, mode="eval"))
    return read


def unread_private_names(sources: dict[str, str], defining: list[str]) -> list[str]:
    """'label: name' of each module-level private name that a source of
    `defining` binds and no source in `sources` ({label: text}) reads."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return [
        f"{label}: {name}"
        for label in defining
        for name in _private_definitions(trees[label])
        if name not in read
    ]


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


def test_private_scan_finds_unread_helpers_and_constants():
    sources = {
        "a": (
            "from typing import Callable\n"
            "_USED = 1\n"
            "_DEAD = 2\n"
            "_ANNOTATED: int = 3\n"
            "__version__ = '1'\n"
            "def _helper(f: '_Alias') -> int:\n"
            "    return _USED\n"
            "def _orphan():\n"
            "    _DEAD = 4\n"
            "class _Alias:\n"
            "    pass\n"
        ),
        "b": "import a\nfrom a import _ANNOTATED\nprint(a._helper)\n",
    }
    assert unread_private_names(sources, ["a"]) == ["a: _DEAD", "a: _orphan"]


def test_no_unread_private_helpers():
    sources = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in FILES
    }
    package = [label for label in sources if label.startswith("src")]
    assert unread_private_names(sources, package) == []
