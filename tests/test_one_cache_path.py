"""One function in the package runs the result cache's protocol.

A search reads its entry with ``ResultCache.load``, checks on a miss that
the directory takes a file (``ensure_writable``) before it searches, and
stores the result (``store``) unless it lists more leaves than the cache
keeps.  A second copy of that sequence can drift from the first (a skipped
probe, a missed leaf cap), so every call of the three methods sits in one
function.  ``cache.purge()`` in the CLI's purge command is not part of it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zerosum"

_PROTOCOL = {"load", "ensure_writable", "store"}


def _protocol_calls(tree: ast.AST, module: str) -> dict[str, set[str]]:
    """``module:function`` of the innermost function around each call of a
    protocol method (``json.load`` aside), with the methods it calls."""
    found: dict[str, set[str]] = {}

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}:{child.name}")
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr in _PROTOCOL
                and not (isinstance(func.value, ast.Name) and func.value.id == "json")
            ):
                found.setdefault(where, set()).add(func.attr)
            visit(child, where)

    visit(tree, f"{module}:<module>")
    return found


def test_detector_sees_each_call():
    tree = ast.parse(
        "def a(cache):\n    cache.load(1)\n"
        "def b(self):\n    self.cache.store(1, 2)\n"
        "def c(cache):\n    def inner():\n        cache.ensure_writable()\n    return inner\n"
        "def d(fh):\n    return json.load(fh)\n"
        "cache.purge()\n"
    )
    assert _protocol_calls(tree, "m") == {
        "m:a": {"load"}, "m:b": {"store"}, "m:inner": {"ensure_writable"},
    }


def test_the_cache_protocol_lives_in_one_function():
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        found.update(_protocol_calls(ast.parse(path.read_text(), filename=str(path)), path.stem))
    assert len(found) == 1 and list(found.values()) == [_PROTOCOL], (
        f"ResultCache.load/ensure_writable/store called from {found}"
    )
