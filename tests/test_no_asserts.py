"""The package holds no ``assert`` statement.

``python -O`` strips asserts, so a check that does correctness work (a
witness re-verification, a stated hypothesis) must raise a ZsError instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zerosum"


def test_package_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"
