"""The default search budgets are decided in one place, the CLI.

Each budgeted subcommand passes ``budget=`` to ``cli.command``, which
raises BudgetExceeded before the body runs; the package functions run any
size asked.  A second copy of a budget inside the package (a ``bound`` or
``force`` parameter and its guard) could drift from the CLI's, so no
package function takes either, and BudgetExceeded is built only in
``cli.command`` and in two caps that are not budgets: the search's depth
cap (a search that would never end) and decomposition's cap.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zerosum"

_BUILDERS = {
    "cli:command",
    "enumeration:_Engine._check_depth",
    "decomposition:block_decompositions",
}
_BUDGET_PARAMETERS = {"bound", "force"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _builders(tree: ast.Module, module: str) -> set[str]:
    """``module:function`` of each module-level function or class method
    that calls ``BudgetExceeded(...)``, in itself or in a function nested
    in it; ``module:<module>`` for a call outside any function."""
    found: set[str] = set()

    def visit(node: ast.AST, where: str | None, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if where is None and isinstance(child, ast.ClassDef):
                visit(child, None, f"{prefix}{child.name}.")
                continue
            if where is None and isinstance(child, _FUNCTIONS):
                visit(child, f"{module}:{prefix}{child.name}", prefix)
                continue
            if isinstance(child, ast.Call) and _is_budget_exceeded(child.func):
                found.add(where or f"{module}:<module>")
            visit(child, where, prefix)

    visit(tree, None, "")
    return found


def _is_budget_exceeded(func: ast.expr) -> bool:
    return (isinstance(func, ast.Name) and func.id == "BudgetExceeded") or (
        isinstance(func, ast.Attribute) and func.attr == "BudgetExceeded")


def _budget_parameters(tree: ast.Module, module: str) -> set[str]:
    """``module:function:parameter`` of every ``bound`` or ``force``
    parameter of any function, nested ones and lambdas included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (*_FUNCTIONS, ast.Lambda)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.arg in _BUDGET_PARAMETERS:
                    found.add(f"{module}:{getattr(node, 'name', '<lambda>')}:{arg.arg}")
    return found


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield ast.parse(path.read_text(), filename=str(path)), path.stem


def test_detectors_see_each_case():
    tree = ast.parse(
        "def a(n, *, bound=7):\n    raise BudgetExceeded('a')\n"
        "class C:\n    def b(self):\n        def inner():\n"
        "            raise errors.BudgetExceeded('b')\n        return inner\n"
        "def c(force):\n    return BudgetExceeded\n"
        "f = lambda n, force=False: n\n"
        "BudgetExceeded('module')\n"
    )
    assert _builders(tree, "m") == {"m:a", "m:C.b", "m:<module>"}
    assert _budget_parameters(tree, "m") == {"m:a:bound", "m:c:force", "m:<lambda>:force"}


def test_budget_exceeded_is_built_only_by_the_cli_and_the_stated_caps():
    found = set()
    for tree, module in _trees():
        found |= _builders(tree, module)
    assert found == _BUILDERS


def test_no_package_function_takes_a_budget():
    found = set()
    for tree, module in _trees():
        found |= _budget_parameters(tree, module)
    assert found == set()
