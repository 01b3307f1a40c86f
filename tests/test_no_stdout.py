"""Only ``cli`` writes to stdout.

A ``zs`` command prints one JSON document on stdout, and the benchmark's
workers read a run's result from their last stdout line, so any other
module that prints (a debug ``print``, a write to ``sys.stdout``, a
``click.echo``) corrupts that output.  Diagnostics go to stderr or into a
Report.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zerosum"

# sys.stdout, sys.__stdout__, click.echo, click.secho
_WRITERS = {"stdout", "__stdout__", "echo", "secho"}


def _stdout_writes(tree: ast.AST) -> list[int]:
    """Line numbers of print calls, sys.stdout references and click echoes."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _WRITERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in {"sys", "click"} and any(
            alias.name in _WRITERS for alias in node.names
        ):
            lines.append(node.lineno)
    return lines


def test_detector_sees_each_form():
    for snippet in (
        "print('x')",
        "import sys\nsys.stdout.write('x')",
        "import click\nclick.echo('x')",
        "from click import echo",
        "from sys import stdout",
    ):
        assert _stdout_writes(ast.parse(snippet)), snippet
    assert not _stdout_writes(ast.parse("import sys\nsys.stderr.write('x')\nprint_it = 1"))


def test_only_cli_writes_to_stdout():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{line}"
        for path in paths
        for line in _stdout_writes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"stdout writes outside cli.py: {found}"
