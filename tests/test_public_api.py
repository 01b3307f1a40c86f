"""Every public name has a caller besides the tests of its own module.

A name in ``zerosum.__all__`` counts as used when it is referenced (an
``ast.Name`` load or a ``from ... import`` alias) in a package module other
than ``__init__``, or mentioned in ``tests/test_acceptance.py`` or under
``perfbench/``.  A method call of the same name (``seq.canonicalize()``)
does not count.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import zerosum

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zerosum"


def _package_references() -> set[str]:
    names: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _mentioned(name: str, texts: list[str]) -> bool:
    pattern = re.compile(rf"(?<![\w.]){re.escape(name)}\b")
    return any(pattern.search(text) for text in texts)


def test_every_public_name_has_a_non_test_use():
    texts = [(ROOT / "tests" / "test_acceptance.py").read_text()]
    texts += [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    referenced = _package_references()
    unused = [
        name for name in zerosum.__all__
        if name not in referenced and not _mentioned(name, texts)
    ]
    assert not unused, f"public names with no use outside their own tests: {unused}"
