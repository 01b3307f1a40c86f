"""numpy and multiprocessing load on first use, in a fresh interpreter.

A command that builds no group table (``--version``, a cache hit) or only
the pure-Python ones (construct, classify, propbfix item 2) must not import
numpy, a search that forks no pool must not import multiprocessing, a
search builds no Automorphism objects, and every numpy entry point must
work when it is the first call of a new process, i.e. when it is the one
that binds numpy.  A ``zs`` process defaults ``OPENBLAS_NUM_THREADS`` to 1
before numpy loads, so it starts no BLAS threads; a library call leaves the
variable alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS = "OPENBLAS_NUM_THREADS"


def _fresh(script: str, env: dict | None = None) -> dict:
    """Run ``script`` in a new interpreter with the sources on the path and
    ``env`` added to this process's environment, less any
    OPENBLAS_NUM_THREADS (a CliRunner test may have set it here); it prints
    one JSON object as its last line."""
    env = {**{k: v for k, v in os.environ.items() if k != BLAS}, **(env or {}),
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def _zs(args: list[str], env: dict | None = None) -> dict:
    """Run ``zs ARGS`` through ``zerosum.cli.main`` in a new interpreter;
    its exit code, stdout, the heavy modules it loaded, its
    OPENBLAS_NUM_THREADS and its thread count (None where the OS does not
    list them)."""
    return _fresh(f"""
import contextlib, io, json, os, sys
import zerosum.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        zerosum.cli.main(args={args!r}, prog_name="zs")
    except SystemExit as exc:
        code = exc.code
tasks = "/proc/self/task"
print(json.dumps({{"code": code, "stdout": out.getvalue(),
                  "loaded": [m for m in ("numpy", "multiprocessing") if m in sys.modules],
                  "blas": os.environ.get({BLAS!r}),
                  "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None}}))
""", env)


def test_importing_the_cli_loads_neither_numpy_nor_multiprocessing():
    got = _fresh("""
import json, sys
import zerosum.cli
print(json.dumps([m for m in ("numpy", "multiprocessing") if m in sys.modules]))
""")
    assert got == []


def test_version_loads_no_numpy():
    got = _zs(["--version"])
    assert got["code"] == 0
    assert "version" in got["stdout"]
    assert got["loaded"] == []


def test_warm_davenport_hit_loads_no_numpy(tmp_path):
    args = ["davenport", "--n", "3", "--jobs", "1", "--cache-dir", str(tmp_path)]
    cold = _zs(args)
    assert cold["code"] == 0 and json.loads(cold["stdout"])["value"] == 5
    assert "numpy" in cold["loaded"]  # the cold run searched
    warm = _zs(args)
    assert warm["code"] == 0
    assert warm["stdout"] == cold["stdout"]
    assert warm["loaded"] == []


def test_scalar_commands_load_no_numpy(tmp_path):
    """construct, classify and propbfix item 2 read only the pure-Python
    tables (``add_index_table``, ``neg_index_table``), never a numpy one."""
    seq = str(tmp_path / "exceptional.json")
    for args in (["construct", "exceptional", "--n", "5", "--x", "2", "--output", seq],
                 ["classify", "--file", seq],
                 ["verify", "propbfix-item2", "--m", "4", "--n", "5"]):
        got = _zs(args)
        assert got["code"] == 0 and "numpy" not in got["loaded"], (args, got)


def test_a_cold_command_starts_no_blas_threads():
    """zerosum calls no BLAS routine, so the zs process loads numpy with
    OPENBLAS_NUM_THREADS=1 and runs on its one thread."""
    got = _zs(["davenport", "--n", "3", "--jobs", "1", "--no-cache"])
    assert got["code"] == 0 and json.loads(got["stdout"])["value"] == 5
    assert "numpy" in got["loaded"]
    assert got["blas"] == "1"
    assert got["threads"] in (None, 1)


def test_a_set_blas_thread_count_wins():
    got = _zs(["davenport", "--n", "3", "--jobs", "1", "--no-cache"], {BLAS: "2"})
    assert got["code"] == 0 and "numpy" in got["loaded"]
    assert got["blas"] == "2"


def test_a_library_call_leaves_the_blas_setting_alone():
    """Only the zs process sets the default: a script that imports zerosum
    keeps its BLAS threads."""
    got = _fresh(f"""
import json, os, sys
from zerosum.enumeration import davenport
from zerosum.groups import group
value = davenport(group(3), jobs=1)
print(json.dumps({{"value": value, "numpy": "numpy" in sys.modules,
                  "blas": os.environ.get({BLAS!r})}}))
""")
    assert got == {"value": 5, "numpy": True, "blas": None}


def test_a_search_builds_no_automorphism_objects():
    """The search reads GL(2, Z/nZ) as the rows of ``perm_table`` alone;
    ``Group.automorphisms`` is a view that no search builds."""
    got = _fresh("""
import json
from zerosum.enumeration import davenport
from zerosum.groups import group
value = davenport(group(7), jobs=1)
print(json.dumps({"value": value, "aut": group(7)._aut is None,
                  "perm": group(7)._perm is not None}))
""")
    assert got == {"value": 13, "aut": True, "perm": True}


def test_small_cold_search_at_two_jobs_loads_no_multiprocessing():
    """davenport(6) walks 7,984 nodes, within the serial budget: no pool."""
    got = _zs(["davenport", "--n", "6", "--jobs", "2", "--no-cache"])
    assert got["code"] == 0 and json.loads(got["stdout"])["value"] == 11
    assert got["loaded"] == ["numpy"]


SEQ = "Sequence.from_terms(group(5), [(1, 2), (3, 4), (2, 2), (0, 3), (3, 4)])"
IMPORTS = """
import json, sys
from zerosum import Sequence, group
from zerosum.enumeration import EnumSpec, enumerate_leaves
from zerosum.lifting import verify_propbfix_item1
from zerosum.properties import verify_property_b
"""

# each the first numpy user of its process, and its value as JSON
FIRST_CALLS = {
    "canonicalize": f"{SEQ}.canonicalize().to_json_obj()",
    "search": "json.loads(verify_property_b(3).to_json(timing=False))",
    "raw search": "[list(leaf) for leaf in enumerate_leaves("
                  "EnumSpec(3, 4, 'zero-sum-free', up_to_symmetry=False))[0]]",
    "propbfix item 1": "json.loads(verify_propbfix_item1(4, 2, samples=5, seed=1)"
                       ".to_json(timing=False))",
}


@pytest.mark.parametrize("expr", FIRST_CALLS.values(), ids=FIRST_CALLS.keys())
def test_numpy_entry_point_works_as_the_first_call(expr):
    namespace: dict = {}
    exec(IMPORTS, namespace)
    expected = eval(expr, namespace)  # in this process, where numpy is loaded
    got = _fresh(f"""{IMPORTS}
assert "numpy" not in sys.modules
value = {expr}
print(json.dumps({{"value": value, "numpy": "numpy" in sys.modules}}))
""")
    assert got == {"value": expected, "numpy": True}


def test_sampled_item1_leaves_numpy_random_unloaded():
    """The item-1 sampler draws from ``random.Random``; importing
    numpy.random would add megabytes to the peak resident memory."""
    got = _fresh(f"""{IMPORTS}
rep = verify_propbfix_item1(4, 5, samples=300, seed=1)
print(json.dumps({{"passed": rep.passed, "loaded": sorted(
    m for m in ("numpy", "numpy.random") if m in sys.modules)}}))
""")
    assert got == {"passed": True, "loaded": ["numpy"]}
