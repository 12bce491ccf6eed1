"""Every parameter of every function in ``src/qscale`` is read by its body."""

from __future__ import annotations

import ast

from source_rules import SOURCES, parse


def _is_stub(fn: ast.FunctionDef) -> bool:
    """A body that only raises NotImplementedError (after an optional docstring)."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(source: str, filename: str = "<string>") -> list[str]:
    """``file:line function(parameter)`` for each parameter its function never reads."""
    found = []
    for fn in ast.walk(parse(source, filename)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_stub(fn):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        names = {p.arg for p in params if p is not None} - {"self"}
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [f"{filename}:{fn.lineno} {fn.name}({name})" for name in sorted(names - read)]
    return found


def test_detector_flags_only_unread_parameters():
    src = (
        "def f(a, b, *args, c, **kw):\n    return a + sum(args) + kw['x']\n"
        "class M:\n"
        "    def stub(self, z):\n        '''doc'''\n        raise NotImplementedError\n"
        "    def g(self, y):\n        def h():\n            return y\n        return h\n"
    )
    assert unread_parameters(src) == ["<string>:1 f(b)", "<string>:1 f(c)"]


def test_every_parameter_is_read():
    unread = [hit for name, text in SOURCES.items() for hit in unread_parameters(text, name)]
    assert not unread, "parameters no body reads:\n" + "\n".join(unread)
