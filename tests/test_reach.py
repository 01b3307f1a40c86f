"""Every function of the package is entered by some ``zs`` command.

The probe runs each subcommand at its smallest size in-process, through
click's CliRunner under ``sys.setprofile``: the searches at jobs=1 with a
fresh cache directory, every run once cold and once warm, then one run
over budget and a cache purge.  The package's lru caches are cleared
first, so that no table an earlier test built hides its builder.

A module-level or class-level function of ``src/zerosum`` that no run
enters fails, unless it is a dunder or on ALLOWED.  An ALLOWED entry that a
run enters, or that no longer exists, fails too, so the list cannot rot.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import types
from pathlib import Path

import pytest
from click.testing import CliRunner

import zerosum
from zerosum.cli import main

SRC = Path(zerosum.__file__).parent  # the paths its code objects carry

# "module.qualname" (or a module name, for all its functions) -> why no run
# enters it
ALLOWED = {
    # run at import time, before any command
    "enumeration._source_digest": "import time",
    "cli.command": "import time",
    "cli.int_opt": "import time",
    # run only in forked workers, i.e. past _SERIAL_NODES nodes at jobs > 1
    "enumeration._run_forked": "fork only",
    "enumeration.SearchStats.merge": "fork only",
    # public API kept on purpose
    "report.Report.to_json": "public API",
    "groups.Automorphism.__call__": "public API",
    "groups.Group.automorphisms": "public API; tests' reference view; perfbench's tracer names it",
    # named by perfbench/ until ROADMAP items 7, 8, 12 and 22 retire them
    "decomposition": "perfbench",
    "subsums.restricted_sums": "perfbench",
    "subsums.subsequence_sums": "perfbench",
    "subsums.is_zero_sum_free": "perfbench",
    "subsums.find_zero_sum_subsequence": "perfbench",
    "sequences.Sequence.is_subsequence_of": "perfbench",
    "sequences.Sequence.apply_hom": "perfbench",
    "lifting.Homomorphism.image_in_coords": "perfbench",
    # kept for ROADMAP items 3 and 9, which give it its first caller
    "sequences.Sequence.canonicalize": "items 3 and 9",
}

J1 = ["--jobs", "1"]


def _runs(tmp: Path) -> list[tuple[list[str], int]]:
    """(arguments, expected exit code) of one pass of the probe."""
    cache = ["--cache-dir", str(tmp / "cache")]
    seq = str(tmp / "exceptional.json")
    enumerate_runs = [
        ["enumerate", "--n", "2", "--length", "3", "--predicate", p, *k, *J1, *cache]
        for p, k in [("all", []), ("zero-sum-free", []), ("minimal-zero-sum", []),
                     ("no-short-zero-sum", ["--k", "2"]), ("zero-sum-no-short", ["--k", "2"])]
    ]
    return [
        (["davenport", "--n", "2", *J1, *cache], 0),
        (["sleq", "--n", "2", "--k", "2", *J1, *cache], 0),
        *[(args, 0) for args in enumerate_runs],
        (["enumerate", "--n", "2", "--length", "2", "--raw", *J1, *cache], 0),
        (["construct", "exceptional", "--n", "5", "--x", "2", "--output", seq], 0),
        (["classify", "--file", seq], 0),
        (["verify", "property-b", "--n", "2", *J1, *cache], 0),
        (["verify", "property-c", "--n", "2", *J1, *cache], 0),
        (["verify", "casen", "--n", "2", *J1, *cache], 0),
        *[(["verify", "perturbation", "--m", "4", "--lemma", lemma, *J1], 0)
          for lemma in ("I", "II", "III")],
        (["verify", "propbfix-item1", "--m", "4", "--n", "2", "--samples", "3"], 0),
        (["verify", "propbfix-item1", "--m", "4", "--n", "2"], 0),
        (["verify", "propbfix-item2", "--m", "4", "--n", "5"], 0),
    ]


def _defined() -> dict[tuple[str, int, str], str]:
    """The module-level and class-level functions of the package, keyed as
    their code objects are, named "module.qualname"."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), f"{path.stem}.")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue  # lambdas and comprehensions
                if const.co_flags & inspect.CO_OPTIMIZED:
                    out[(const.co_filename, const.co_firstlineno, const.co_name)] = (
                        prefix + const.co_name)
                else:  # a class body
                    stack.append((const, f"{prefix}{const.co_name}."))
    return out


@pytest.fixture(scope="module")
def reach(tmp_path_factory) -> tuple[set[str], set[str]]:
    """(every function, the functions the probe entered), as names."""
    for info in pkgutil.iter_modules([str(SRC)]):
        for value in vars(importlib.import_module(f"zerosum.{info.name}")).values():
            if hasattr(value, "cache_info"):  # an lru_cache
                value.cache_clear()
    tmp = tmp_path_factory.mktemp("reach")
    runs = _runs(tmp) * 2 + [(["davenport", "--n", "9", "--no-cache", *J1], 3),
                             (["cache", "purge", "--cache-dir", str(tmp / "cache")], 0)]
    runner, entered, codes = CliRunner(env={"OPENBLAS_NUM_THREADS": None}), set(), []

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for args, _ in runs:
            codes.append(runner.invoke(main, args).exit_code)
    finally:
        sys.setprofile(previous)
    assert codes == [code for _, code in runs]
    defined = _defined()
    keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    return set(defined.values()), {name for key, name in defined.items() if key in keys}


def _allowed(name: str) -> bool:
    module, _, rest = name.partition(".")
    short = rest.rpartition(".")[2]
    return (name in ALLOWED or module in ALLOWED
            or (short.startswith("__") and short.endswith("__")))


def test_every_function_is_entered_by_a_command_or_allowed(reach):
    defined, entered = reach
    assert sorted(name for name in defined - entered if not _allowed(name)) == []


def test_every_allowed_entry_is_a_function_no_command_enters(reach):
    defined, entered = reach
    covered = {entry: {name for name in defined if name == entry or name.startswith(entry + ".")}
               for entry in ALLOWED}
    assert sorted(entry for entry, names in covered.items() if not names) == []
    assert sorted(entry for entry, names in covered.items() if names & entered) == []
