"""The library's surface carries nothing that no code reads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "thermoformal"


def _unread_parameters(tree):
    """(function name, line, parameter) of every ``def`` parameter that the
    function's body never reads; ``self``, ``cls`` and ``_``-prefixed names
    are exempt, and so are lambdas, which are not ``def``s."""
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(fn.name, fn.lineno, p.arg) for p in params
                   if p.arg not in read and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_")]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(ast.parse(path.read_text())) == []


def test_unread_parameter_is_caught():
    tree = ast.parse("def f(m, x, _y, *rest):\n"
                     "    g = lambda member: 0\n"
                     "    return x\n")
    assert _unread_parameters(tree) == [("f", 1, "m"), ("f", 1, "rest")]
