"""The names the benchmark in ``perfbench/`` uses still exist in the package.

``perfbench/`` reaches into zerosum by name: its tracer wraps functions and
methods given as strings, and its workloads call module attributes such as
``enumeration.max_length_with``.  Deleting or renaming one of them breaks
the benchmark without failing any other test.  These tests read
``perfbench/`` and change nothing in it.
"""

from __future__ import annotations

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import zerosum
import zerosum.cli  # noqa: F401  (zs_traced.py loads it)
from zerosum.groups import Group

from ledger import LEDGER

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


@pytest.fixture
def bench(monkeypatch):
    """Import a module of perfbench/ with perfbench/ first on sys.path; the
    perfbench modules imported are dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def _wrapped(modname, owner, attr) -> bool:
    holder = sys.modules[modname]
    if owner is not None:
        holder = getattr(holder, owner)
    fn = getattr(holder, attr)
    return hasattr(getattr(fn, "__func__", fn), "__wrapped__")


def test_tracer_installs_and_uninstalls(bench):
    tracer = bench("tracer")
    traced = [entry[1:4] for entry in tracer.FUNCTIONS + tracer.GENERATORS]
    assert [t for t in traced if _wrapped(*t)] == []
    spy = tracer.Tracer()
    try:
        spy.install()
        missing = [t for t in traced if not _wrapped(*t)]
    finally:
        spy.uninstall()
    assert missing == []
    assert [t for t in traced if _wrapped(*t)] == []


def test_table_names_are_group_methods_and_slots(bench):
    tracer, workloads = bench("tracer"), bench("workloads")
    assert set(tracer._TABLES.values()) <= set(Group.__slots__)
    for tables in (tracer._TABLES, *workloads.SEARCH_TABLES.values(),
                   *workloads.SEQUENCE_TABLES.values()):
        assert all(callable(getattr(Group, name, None)) for name in tables), tables


def _bindings(tree: ast.AST) -> tuple[dict[str, object], list[str]]:
    """The names a perfbench module binds to zerosum objects by import, and
    the imported names that do not resolve."""
    bound: dict[str, object] = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "zerosum":
                    importlib.import_module(alias.name)
                    bound[alias.asname or "zerosum"] = (
                        sys.modules[alias.name] if alias.asname else zerosum)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zerosum":
            module = importlib.import_module(node.module)
            for alias in node.names:
                # zerosum and zerosum.cli are imported above, so every
                # submodule is already an attribute of its package
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
    return bound, missing


def _unresolved(node: ast.Attribute, bound: dict[str, object]) -> str | None:
    """The dotted name of an attribute chain rooted at a zerosum binding that
    fails to resolve; None if it resolves or is not such a chain.  Only
    modules and classes are looked into: an instance's attributes are not
    known before it runs."""
    chain = []
    base = node
    while isinstance(base, ast.Attribute):
        chain.append(base.attr)
        base = base.value
    if not isinstance(base, ast.Name) or base.id not in bound:
        return None
    obj = bound[base.id]
    path = base.id
    for attr in reversed(chain):
        if not isinstance(obj, (type, types.ModuleType)):
            return None
        path += f".{attr}"
        if not hasattr(obj, attr):
            return path
        obj = getattr(obj, attr)
    return None


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_zerosum_name_perfbench_uses_resolves(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, missing = _bindings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = _unresolved(node, bound)
            if name is not None:
                missing.append(f"{path.name}:{node.lineno}: {name}")
    assert missing == []


def test_the_scan_sees_the_workloads_calls():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    bound, _ = _bindings(tree)
    assert bound["enumeration"] is sys.modules["zerosum.enumeration"]
    assert bound["Sequence"] is zerosum.Sequence
    seen = {f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    assert {"enumeration.max_length_with", "lifting.verify_propbfix_item1"} <= seen


def test_the_counts_perfbench_expects_are_the_ledgers(bench):
    """``perfbench/expected.py`` keeps its own copy of some ledger rows."""
    expected = bench("expected")
    casen, census = LEDGER["casen n=5 s=1"], LEDGER["census n=5 length=7"]

    def counts(key):
        return LEDGER[key]["orbits_scanned"], LEDGER[key]["details"]["nodes"]

    assert expected.DAVENPORT_NODES == {
        n: LEDGER[f"davenport n={n}"]["stats"]["nodes"] for n in expected.DAVENPORT_NODES}
    assert expected.PROPERTY_B == {n: counts(f"property-b n={n}") for n in expected.PROPERTY_B}
    assert expected.PROPERTY_C == {n: counts(f"property-c n={n}") for n in expected.PROPERTY_C}
    assert expected.CASEN_5_1 == (*counts("casen n=5 s=1"), casen["details"]["kinds"])
    assert (expected.CENSUS_ORBITS, expected.CENSUS_NODES) == (census["count"], census["nodes"])
