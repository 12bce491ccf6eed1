"""Only ``levy``, ``config``, ``oracles`` and ``__init__`` name a jump family.

``levy`` defines the families, ``config`` maps config kinds to them,
``oracles`` holds per-family closed forms and ``__init__`` re-exports.
Every other module reads a jump measure through the ``JumpMeasure``
interface, the zero measure included, so no module there names a family
class or reads an ``is_zero`` flag: no jumps is ``NoJumps``, not a special
case.
"""

from __future__ import annotations

import ast

from qscale.config import _JUMP_KINDS
from source_rules import SOURCES, parse

MAY_NAME_FAMILIES = {"levy.py", "config.py", "oracles.py", "__init__.py"}
FORBIDDEN = {cls.__name__ for cls in _JUMP_KINDS.values()} | {"is_zero"}


def family_references(sources: dict[str, str]) -> list[str]:
    """``file:line name`` for each jump-family class or ``is_zero`` that a
    module outside MAY_NAME_FAMILIES names."""
    hits = []
    for file, text in sources.items():
        if file in MAY_NAME_FAMILIES:
            continue
        for node in ast.walk(parse(text, file)):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            hits += [f"{file}:{node.lineno} {name}" for name in names if name in FORBIDDEN]
    return sorted(hits)


def test_detector_flags_family_names_and_is_zero():
    sources = {
        "a.py": (
            "from .levy import NoJumps, LevyModel\n"
            "if model.jumps.is_zero:\n    pass\n"
            "x = levy.GammaSubordinator\n"
            "y = model.jumps.draw_jumps(scheme, rng)\n"
            "'''CompoundPoissonGamma in a docstring is prose'''\n"
        ),
        "levy.py": "class NoJumps:\n    is_zero = True\n",
        "oracles.py": "isinstance(j, CompoundPoissonExponential)\n",
    }
    assert family_references(sources) == [
        "a.py:1 NoJumps", "a.py:2 is_zero", "a.py:4 GammaSubordinator",
    ]


def test_no_family_names_outside_levy_config_oracles():
    hits = family_references(SOURCES)
    assert not hits, "jump families named outside levy/config/oracles:\n" + "\n".join(hits)
