"""The sources of ``src/qscale`` and what the source-rule tests
(``test_public_names``, ``test_private_names``, ``test_parameters``,
``test_family_names``) share to read them.

Each rule is a detector over ``{file name: source text}``, checked once on
made-up sources and once on ``SOURCES``.  ``parse`` keeps one tree per text,
so the package's files are parsed once however many rules read them.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import qscale

SOURCES = {
    path.name: path.read_text() for path in sorted(Path(qscale.__file__).parent.glob("*.py"))
}

parse = functools.cache(ast.parse)


def referenced(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported anywhere in the tree."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs
