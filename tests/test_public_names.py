"""Every public module-level function of the production modules in ``src/qscale``
is read by a production module.

The production modules are all but ``oracles.py`` (the quadrature and
inversion references the tests check against) and ``__init__.py`` (whose
imports only re-export).  A function no production module reads is a wrapper
nothing calls, and goes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qscale

SOURCES = sorted(Path(qscale.__file__).parent.glob("*.py"))
NOT_PRODUCTION = {"oracles.py", "__init__.py"}

# Bound only by the benchmark's tracing probes (perfbench/tracing.py PROBES).
# They leave with the benchmark change of ROADMAP item 2.
PROBE_ONLY = {
    "eval_P", "eval_Q_all", "eval_Pstar", "eval_Qstar_all",
    "grad_P", "grad_Q_all", "grad_Pstar", "grad_Qstar_all",
    "psi_integral_db_all", "laplace_exponent_deriv", "laguerre_fn_all",
}


def _defined(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each public function at module level."""
    return [
        (node.name, node.lineno)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def _referenced(tree: ast.Module) -> set[str]:
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


def unread_public_functions(sources: dict[str, str]) -> list[str]:
    """``file:line name`` for each public function of a production module
    that no production module reads."""
    trees = {
        name: ast.parse(text, name) for name, text in sources.items()
        if name not in NOT_PRODUCTION
    }
    refs = set().union(*(_referenced(tree) for tree in trees.values()))
    return [
        f"{file}:{line} {name}"
        for file, tree in trees.items()
        for name, line in _defined(tree)
        if name not in refs
    ]


def test_detector_flags_only_unread_public_functions():
    sources = {
        "a.py": (
            "def used():\n    return 0\n"
            "def orphan():\n    return 1\n"
            "def exported():\n    return 2\n"
            "def by_attr():\n    return 3\n"
            "def for_oracles():\n    return 4\n"
            "def _private():\n    return used()\n"
        ),
        "b.py": "from .a import exported\nfrom . import a\nx = a.by_attr\n",
        "oracles.py": "from .a import for_oracles\ndef reference():\n    return 5\n",
        "__init__.py": "from .a import orphan\n",
    }
    assert unread_public_functions(sources) == ["a.py:3 orphan", "a.py:9 for_oracles"]


def test_every_public_function_is_read():
    sources = {path.name: path.read_text() for path in SOURCES}
    unread = unread_public_functions(sources)
    names = {hit.rpartition(" ")[2] for hit in unread}
    dead = [hit for hit in unread if hit.rpartition(" ")[2] not in PROBE_ONLY]
    assert not dead, "public functions no production module reads:\n" + "\n".join(dead)
    # an exception that production reads now is no longer an exception
    assert PROBE_ONLY <= names, f"read now, drop from PROBE_ONLY: {sorted(PROBE_ONLY - names)}"
