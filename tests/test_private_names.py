"""Every private module-level function and constant in ``src/qscale`` has a reader there."""

from __future__ import annotations

import ast

from source_rules import SOURCES, parse, referenced


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each private function or assigned name at module level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in found if _is_private(name)]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``file:line name`` for each private module-level name no source reads."""
    trees = {name: parse(text, name) for name, text in sources.items()}
    refs = set().union(*(referenced(tree) for tree in trees.values()))
    return [
        f"{file}:{line} {name}"
        for file, tree in trees.items()
        for name, line in _defined(tree)
        if name not in refs
    ]


def test_detector_flags_only_unreferenced_private_names():
    sources = {
        "a.py": (
            "__all__ = ['pub']\n_USED = 1\n_DEAD = 2\n"
            "def _helper():\n    return _USED\n"
            "def _orphan():\n    return 0\n"
            "def _exported():\n    return 1\n"
            "def _by_attr():\n    return 2\n"
            "def pub():\n    return _helper()\n"
        ),
        "b.py": "from .a import _exported\nfrom . import a\nx = a._by_attr\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:3 _DEAD", "a.py:6 _orphan"]


def test_every_private_name_is_referenced():
    dead = unreferenced_private_names(SOURCES)
    assert not dead, "private names nothing in src/qscale reads:\n" + "\n".join(dead)
