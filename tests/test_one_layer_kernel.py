"""The subsum DP has one layer representation, the packed int.

``subsums`` holds all the length layers of a state in one int, layer l in
bits [l n^2, (l + 1) n^2), and appends a term with one ``translate`` of
the whole int.  A second representation, a list of one int per layer
updated one translate at a time, would be a second kernel to keep in step
with the first, so: the shift tables (``translations``) are read only in
``subsums``, no function named ``step`` exists, and no ``subsums``
function builds or updates a list of layer ints.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zerosum"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _called(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(tree: ast.Module, name: str) -> int:
    """The number of calls of ``name(...)`` or ``x.name(...)``."""
    return sum(isinstance(node, ast.Call) and _called(node.func) == name
               for node in ast.walk(tree))


def _functions_named(tree: ast.Module, module: str, name: str) -> set[str]:
    return {f"{module}:{node.name}" for node in ast.walk(tree)
            if isinstance(node, _FUNCTIONS) and node.name == name}


def _layer_lists(tree: ast.Module) -> set[str]:
    """``function:line`` of each place that builds or updates a list of
    layer ints: a list display repeated or joined (``[1] * k``, ``[1] +
    ...``), a ``list(...)`` copy, a ``translate`` of anything but a whole
    state held in a name (``translate(out[l - 1], ...)``), or a subscript
    updated in place by a translate (``out[l] |= translate(...)``)."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, _FUNCTIONS):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Add)) and (
                    isinstance(node.left, ast.List) or isinstance(node.right, ast.List)):
                bad = True
            elif isinstance(node, ast.Call) and _called(node.func) == "list":
                bad = True
            elif isinstance(node, ast.Call) and _called(node.func) == "translate":
                bad = not (node.args and isinstance(node.args[0], ast.Name))
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
                bad = _calls(ast.Module(body=[node], type_ignores=[]), "translate") > 0
            else:
                bad = False
            if bad:
                found.add(f"{func.name}:{node.lineno}")
    return found


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield ast.parse(path.read_text(), filename=str(path)), path.stem


# a per-layer kernel and a packed append, for the detectors' own test
_PER_LAYER = '''
def step(layers, shift, top):
    out = list(layers)
    for l in range(top, 0, -1):
        out[l] |= translate(out[l - 1], shift)
    return out

def fresh(self):
    return 1 if self.k is None else [1] * self.k

def forward_layers(grp, terms, lmax):
    cur = [1] + [0] * lmax
    return [cur]

def packed(state, shift, up, mask, rows):
    rows[:, 1:] |= rows[:, :-1]
    return (state | translate(state, shift) << up) & mask
'''


def test_detectors_see_each_case():
    tree = ast.parse(_PER_LAYER)
    assert _functions_named(tree, "m", "step") == {"m:step"}
    assert _layer_lists(tree) == {"step:3", "step:5", "fresh:9", "forward_layers:12"}
    assert _calls(ast.parse("translations(n)\nsubsums.translations(n, 2)\n"), "translations") == 2


def test_translations_are_read_only_in_subsums():
    callers = {module for tree, module in _trees() if _calls(tree, "translations")}
    assert callers == {"subsums"}


def test_no_per_layer_step():
    found = set()
    for tree, module in _trees():
        found |= _functions_named(tree, module, "step")
    assert found == set()


def test_subsums_builds_no_list_of_layers():
    tree = ast.parse((SRC / "subsums.py").read_text())
    assert _layer_lists(tree) == set()
