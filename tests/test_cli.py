import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import zerosum.cli
import zerosum.enumeration
from zerosum.cli import main, parse_sequence_file
from zerosum.errors import ParseError, SchemaError
from zerosum.groups import group
from zerosum.report import Report
from zerosum.sequences import Sequence

from ledger import LEDGER

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def runner():
    # main defaults OPENBLAS_NUM_THREADS in its process; the runner puts the
    # caller's value back after each invoke
    return CliRunner(env={"OPENBLAS_NUM_THREADS": None})


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def out_json(result):
    return json.loads(result.output)


def test_davenport_value_and_config(runner):
    res = invoke(runner, "davenport", "--n", "4", "--no-cache")
    assert res.exit_code == 0
    obj = out_json(res)
    assert obj["value"] == 7
    assert obj["config"]["subcommand"] == "davenport"
    assert obj["config"]["n"] == 4
    assert obj["config"]["force"] is False
    assert "jobs" in obj["config"]


def test_sleq_value(runner):
    res = invoke(runner, "sleq", "--n", "3", "--k", "3", "--no-cache")
    assert res.exit_code == 0
    assert out_json(res)["value"] == 7


def test_sleq_below_n_exits_two(runner, monkeypatch):
    # k < n is refused before any search: a search here would hit the cap
    monkeypatch.setattr(zerosum.enumeration, "_search", _no_search)
    res = invoke(runner, "sleq", "--n", "4", "--k", "3", "--no-cache")
    assert res.exit_code == 2
    assert res.stdout == ""
    error = json.loads(res.stderr)
    assert error["error"] == "PreconditionViolated"
    assert "k=3 < n=4" in error["message"]


def test_enumerate_count_and_limit(runner):
    res = invoke(runner, "enumerate", "--n", "2", "--length", "2",
                 "--predicate", "all", "--raw", "--no-cache")
    assert res.exit_code == 0
    obj = out_json(res)
    assert obj["count"] == 10
    assert len(obj["sequences"]) == 10
    assert not obj["truncated"]

    res = invoke(runner, "enumerate", "--n", "2", "--length", "2",
                 "--predicate", "all", "--raw", "--limit", "3", "--no-cache")
    obj = out_json(res)
    assert obj["count"] == 10
    assert len(obj["sequences"]) == 3
    assert obj["truncated"]


def _no_search(*_args, **_kwargs):
    raise AssertionError("a cache hit must not search")


# enumerate arguments whose cold and warm listings are compared; n=4 has 119
# orbits of length 4, so the default --limit 100 truncates
LISTINGS = {
    "limit 0": ["--n", "4", "--length", "4", "--limit", "0"],
    "limit 1": ["--n", "4", "--length", "4", "--limit", "1"],
    "default": ["--n", "4", "--length", "4"],
    "raw": ["--n", "3", "--length", "4", "--raw"],
    "length 0": ["--n", "3", "--length", "0"],
    "length 0 minimal": ["--n", "3", "--length", "0", "--predicate", "minimal-zero-sum"],
}


@pytest.mark.parametrize("args", LISTINGS.values(), ids=LISTINGS.keys())
def test_enumerate_listing_is_the_same_cold_warm_and_uncached(runner, monkeypatch, tmp_path,
                                                              args):
    cached = ["enumerate", *args, "--jobs", "1", "--cache-dir", str(tmp_path)]
    cold = invoke(runner, *cached)
    assert cold.exit_code == 0
    decoded = []
    from_terms = Sequence.from_terms.__func__
    monkeypatch.setattr(Sequence, "from_terms", classmethod(
        lambda cls, grp, terms: decoded.append(grp) or from_terms(cls, grp, terms)))
    monkeypatch.setattr(zerosum.enumeration, "_search", _no_search)
    warm = invoke(runner, *cached)
    monkeypatch.undo()
    assert warm.exit_code == 0
    assert warm.output == cold.output
    obj = out_json(warm)
    # a warm run decodes only the sequences it lists
    assert len(decoded) == len(obj["sequences"])
    uncached = out_json(invoke(runner, "enumerate", *args, "--jobs", "1", "--no-cache"))
    assert {**uncached, "config": None} == {**obj, "config": None}
    # the listing is the prefix of the full decoded enumeration
    n, length = int(args[1]), int(args[3])
    predicate = args[args.index("--predicate") + 1] if "--predicate" in args else "all"
    spec = zerosum.enumeration.EnumSpec(n, length, predicate, up_to_symmetry="--raw" not in args)
    seqs, stats = zerosum.enumeration.enumerate_sequences(spec)
    leaves, cached_stats = zerosum.enumeration.enumerate_leaves(
        spec, cache=zerosum.enumeration.ResultCache(str(tmp_path)))
    assert obj["count"] == len(seqs) == len(leaves) == stats.leaves == cached_stats.leaves
    assert obj["sequences"] == [s.to_json_obj() for s in seqs[:len(obj["sequences"])]]
    assert obj["truncated"] == (len(obj["sequences"]) < len(seqs))


def test_enumerate_budget_exit(runner, monkeypatch, tmp_path):
    args = ["davenport", "--n", "9", "--no-cache"]
    _assert_over_budget(runner, monkeypatch, tmp_path, args, "davenport with n=9")


def test_construct_classify_round_trip(runner, tmp_path):
    path = tmp_path / "exc.json"
    res = invoke(runner, "construct", "exceptional", "--n", "5", "--x", "2",
                 "--output", str(path))
    assert res.exit_code == 0
    assert res.output == ""
    res = invoke(runner, "classify", "--n", "5", "--file", str(path))
    assert res.exit_code == 0
    obj = out_json(res)
    assert obj["kind"] == "item2"
    assert {w["x"] for w in obj["item2"]} == {2, 3}


def test_classify_item1_sequence(runner, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(
        {"n": 3, "terms": [[0, 1, 2], [1, 0, 5], [1, 1, 1]]}))
    res = invoke(runner, "classify", "--file", str(path))
    assert res.exit_code == 0
    assert out_json(res)["kind"] == "item1"


def test_classify_modulus_mismatch(runner, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"n": 3, "terms": [[1, 0, 1]]}))
    res = invoke(runner, "classify", "--n", "5", "--file", str(path))
    assert res.exit_code == 2


def test_classify_missing_file(runner, tmp_path):
    res = invoke(runner, "classify", "--file", str(tmp_path / "nope.json"))
    assert res.exit_code == 2


def test_construct_invalid_x(runner):
    res = invoke(runner, "construct", "exceptional", "--n", "6", "--x", "2")
    assert res.exit_code == 2


def test_verify_property_b_passes(runner):
    res = invoke(runner, "verify", "property-b", "--n", "3", "--no-cache")
    assert res.exit_code == 0
    obj = out_json(res)
    assert obj["passed"] is True
    assert obj["counterexamples"] == []
    assert obj["config"]["subcommand"] == "verify property-b"


def test_verify_casen_budget(runner, monkeypatch, tmp_path):
    args = ["verify", "casen", "--n", "6", "--no-cache"]
    _assert_over_budget(runner, monkeypatch, tmp_path, args, "verify casen with n=6, s=1")


def test_verify_perturbation_exits(runner):
    res = invoke(runner, "verify", "perturbation", "--m", "4", "--lemma", "III")
    assert res.exit_code == 0
    res = invoke(runner, "verify", "perturbation", "--m", "3", "--lemma", "I")
    assert res.exit_code == 2
    res = invoke(runner, "verify", "perturbation", "--m", "4", "--lemma", "IV")
    assert res.exit_code == 2


def test_verify_propbfix_item1(runner):
    res = invoke(runner, "verify", "propbfix-item1", "--m", "4",
                 "--n", "2", "--samples", "50", "--seed", "9")
    assert res.exit_code == 0
    obj = out_json(res)
    assert obj["orbits_scanned"] == 50
    assert obj["config"]["seed"] == 9
    assert obj["params"] == {"m": 4, "n": 2, "samples": 50, "seed": 9}


def test_verify_propbfix_item1_is_exhaustive_by_default(runner):
    res = invoke(runner, "verify", "propbfix-item1", "--m", "4", "--n", "5")
    assert res.exit_code == 0
    obj = out_json(res)
    assert obj["details"]["population"] == "exhaustive residue enumeration"
    assert obj["orbits_scanned"] == 2125
    assert obj["params"] == {"m": 4, "n": 5}


def test_verify_propbfix_item2_zero_hits_exit_zero(runner):
    res = invoke(runner, "verify", "propbfix-item2", "--m", "4", "--n", "5")
    obj = out_json(res)
    assert obj["details"]["hit_count"] == 0
    assert obj["status"] == "no qualifying S found"
    assert obj["details"]["reason"] == (
        "the image of a one-coset sequence is again one-coset, with heavy multiplicity "
        "congruent to -1 mod n, so it never has the item-2 shape")
    assert res.exit_code == 0
    assert obj["counterexamples"] == []
    assert obj["params"] == {"m": 4, "n": 5, "seed": 2026}


def _assert_usage_error(res, option):
    assert res.exit_code == 2
    assert option in res.output
    assert "{" not in res.output


def _refuse_check(monkeypatch, item):
    def refused(*_args, **_kwargs):
        raise AssertionError("a refused command ran its check")

    monkeypatch.setattr(zerosum.cli, f"verify_propbfix_{item}", refused)


def test_verify_propbfix_sampled_item1_rejects_jobs(runner):
    res = invoke(runner, "verify", "propbfix-item1", "--m", "4",
                 "--n", "2", "--samples", "5", "--jobs", "2")
    _assert_usage_error(res, "--jobs")


def test_verify_propbfix_item2_rejects_jobs(runner):
    res = invoke(runner, "verify", "propbfix-item2", "--m", "4", "--n", "5", "--jobs", "1")
    _assert_usage_error(res, "--jobs")


def test_verify_propbfix_exhaustive_item1_rejects_jobs(runner):
    res = invoke(runner, "verify", "propbfix-item1", "--m", "4", "--n", "2", "--jobs", "2")
    _assert_usage_error(res, "--jobs")


@pytest.mark.parametrize("item, option", [
    ("item2", ["--samples", "3"]), ("item2", ["--item", "2"]), ("item2", ["--structured", "9"]),
    ("item2", ["--random-lifts", "0"]), ("item1", ["--exhaustive"]),
    ("item1", ["--structured", "9"]), ("item1", ["--item", "1"]),
])
def test_verify_propbfix_rejects_an_option_it_does_not_read(runner, monkeypatch, item, option):
    _refuse_check(monkeypatch, item)
    res = invoke(runner, "verify", f"propbfix-{item}", "--m", "4", "--n", "5", *option)
    _assert_usage_error(res, option[0])


def test_verify_propbfix_item1_seed_needs_samples(runner, monkeypatch):
    """The residue enumeration draws nothing, so a seed without --samples
    would be read by nothing."""
    _refuse_check(monkeypatch, "item1")
    res = invoke(runner, "verify", "propbfix-item1", "--m", "4", "--n", "2", "--seed", "3")
    _assert_usage_error(res, "--seed")


def test_verify_propbfix_item1_budget(runner, monkeypatch):
    """(5,6) has 54,081 residue rows, past the budget: exit 3 before the
    check runs; --force or --samples lets it run."""
    calls = []
    monkeypatch.setattr(zerosum.cli, "verify_propbfix_item1",
                        lambda m, n, **kw: calls.append(kw) or Report("propbfix-item1", {}))
    res = invoke(runner, "verify", "propbfix-item1", "--m", "5", "--n", "6")
    assert res.exit_code == 3
    assert res.stdout == "" and calls == []
    assert json.loads(res.stderr) == {
        "error": "BudgetExceeded",
        "message": "verify propbfix-item1 with m=5, n=6, seed=2026 exceeds the default "
                   "budget; pass --force to run it anyway",
    }
    for extra in (["--force"], ["--samples", "10"]):
        res = invoke(runner, "verify", "propbfix-item1", "--m", "5", "--n", "6", *extra)
        assert res.exit_code == 0
    assert calls == [{"samples": None, "seed": 2026}, {"samples": 10, "seed": 2026}]
    # (8,5), 27,150 rows, is within it
    assert invoke(runner, "verify", "propbfix-item1", "--m", "8", "--n", "5").exit_code == 0


# each verify subcommand at its smallest size
SMALLEST = {
    "property-b": ["--n", "2", "--jobs", "1", "--no-cache"],
    "property-c": ["--n", "2", "--jobs", "1", "--no-cache"],
    "casen": ["--n", "2", "--jobs", "1", "--no-cache"],
    "perturbation": ["--m", "4", "--lemma", "I", "--jobs", "1"],
    "propbfix-item1": ["--m", "4", "--n", "2"],
    "propbfix-item2": ["--m", "4", "--n", "5"],
}


@pytest.mark.parametrize("name", sorted(zerosum.cli.verify_grp.commands))
def test_verify_subcommand_is_named_after_its_check(runner, name):
    """Each ``zs verify`` subcommand emits a report whose ``check`` is the
    subcommand's name; a subcommand SMALLEST lacks fails here."""
    assert name in SMALLEST, f"add verify {name} to SMALLEST"
    res = invoke(runner, "verify", name, *SMALLEST[name])
    assert res.exit_code == 0
    assert out_json(res)["check"] == name


def test_report_replay_determinism(runner):
    args = ("verify", "property-b", "--n", "3", "--jobs", "1", "--no-cache")
    a = out_json(invoke(runner, *args))
    b = out_json(invoke(runner, *args))
    a.pop("elapsed_ms", None)
    b.pop("elapsed_ms", None)
    assert a == b


def test_cache_purge(runner, tmp_path):
    cdir = str(tmp_path / "cache")
    res = invoke(runner, "davenport", "--n", "3", "--cache-dir", cdir)
    assert res.exit_code == 0
    res = invoke(runner, "cache", "purge", "--cache-dir", cdir)
    assert res.exit_code == 0
    assert out_json(res)["removed"] >= 1
    res = invoke(runner, "cache", "purge", "--cache-dir", cdir)
    assert out_json(res)["removed"] == 0


def test_output_file_holds_report(runner, tmp_path):
    path = tmp_path / "report.json"
    res = invoke(runner, "verify", "property-b", "--n", "2", "--no-cache",
                 "--output", str(path))
    assert res.exit_code == 0
    assert res.output == ""
    obj = json.loads(path.read_text())
    assert obj["passed"] is True
    assert obj["config"]["n"] == 2


def test_usage_error_exit_code(runner):
    res = invoke(runner, "davenport")
    assert res.exit_code == 2
    res = invoke(runner, "enumerate", "--n", "2", "--length", "3",
                 "--predicate", "sideways")
    assert res.exit_code == 2


def test_parse_sequence_file_examples(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"n": 3, "terms": [[0, 1, 2], [1, 0, 2], [1, 1, 1]]}))
    seq = parse_sequence_file(str(good))
    assert seq == Sequence(group(3), (((1, 0), 2), ((0, 1), 2), ((1, 1), 1)))

    out_of_range = tmp_path / "range.json"
    out_of_range.write_text(json.dumps({"n": 3, "terms": [[3, 0, 1]]}))
    with pytest.raises(SchemaError):
        parse_sequence_file(str(out_of_range))

    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"n": 3, "terms": [[1, 0, 1], [1, 0, 1]]}))
    with pytest.raises(SchemaError):
        parse_sequence_file(str(dup))

    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 3, "terms": [[1, 0, 1]')
    with pytest.raises(ParseError) as exc:
        parse_sequence_file(str(broken))
    assert "broken.json:1:" in str(exc.value)

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps(
        {"check": "construct-exceptional",
         "sequence": {"n": 3, "terms": [[1, 0, 1]]}}))
    assert parse_sequence_file(str(wrapped)) == Sequence(group(3), (((1, 0), 1),))


def test_help_lists_subcommands(runner):
    res = invoke(runner, "--help")
    assert res.exit_code == 0
    for name in ("davenport", "sleq", "enumerate", "classify", "construct",
                 "verify", "cache"):
        assert name in res.output


ITEM1_SEQUENCE = {"n": 3, "terms": [[0, 1, 2], [1, 0, 5], [1, 1, 1]]}
NO_CACHE = {"cache_dir": None, "no_cache": True}
# the cores this process may run on
DEFAULT_JOBS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)

# Every subcommand's emitted config and exit code, each case under a fixed
# id; "{tmp}" stands for the test's temporary directory, which holds
# ITEM1_SEQUENCE as seq.json.
CONFIG_CASES = [
    ("davenport --n 3_0",
     ["davenport", "--n", "3", "--jobs", "1", "--no-cache"], 0,
     {"subcommand": "davenport", "n": 3, "force": False, "jobs": 1, **NO_CACHE}),
    ("davenport --n 3_1",
     ["davenport", "--n", "3", "--no-cache"], 0,
     {"subcommand": "davenport", "n": 3, "force": False, "jobs": DEFAULT_JOBS, **NO_CACHE}),
    ("sleq --n 3",
     ["sleq", "--n", "3", "--k", "3", "--jobs", "1", "--no-cache"], 0,
     {"subcommand": "sleq", "n": 3, "k": 3, "force": False, "jobs": 1, **NO_CACHE}),
    ("enumerate --n 2_0",
     ["enumerate", "--n", "2", "--length", "2", "--jobs", "1", "--no-cache"], 0,
     {"subcommand": "enumerate", "n": 2, "length": 2, "predicate": "all", "k": None,
      "raw": False, "limit": 100, "jobs": 1, **NO_CACHE}),
    ("enumerate --n 2_1",
     ["enumerate", "--n", "2", "--length", "3", "--predicate", "no-short-zero-sum",
      "--k", "2", "--raw", "--limit", "0", "--jobs", "2", "--cache-dir", "{tmp}/c"], 0,
     {"subcommand": "enumerate", "n": 2, "length": 3, "predicate": "no-short-zero-sum",
      "k": 2, "raw": True, "limit": 0, "jobs": 2, "cache_dir": "{tmp}/c",
      "no_cache": False}),
    ("classify --file {tmp}/seq.json0",
     ["classify", "--file", "{tmp}/seq.json"], 0,
     {"subcommand": "classify", "file": "{tmp}/seq.json", "n": None}),
    ("classify --file {tmp}/seq.json1",
     ["classify", "--file", "{tmp}/seq.json", "--n", "3"], 0,
     {"subcommand": "classify", "file": "{tmp}/seq.json", "n": 3}),
    ("construct exceptional --n",
     ["construct", "exceptional", "--n", "5", "--x", "2"], 0,
     {"subcommand": "construct exceptional", "n": 5, "x": 2, "a": 1, "b": 1, "c": 1}),
    ("verify property-b --n",
     ["verify", "property-b", "--n", "2", "--jobs", "1", "--no-cache"], 0,
     {"subcommand": "verify property-b", "n": 2, "force": False, "jobs": 1, **NO_CACHE}),
    ("verify property-c --n",
     ["verify", "property-c", "--n", "2", "--jobs", "1", "--no-cache"], 0,
     {"subcommand": "verify property-c", "n": 2, "force": False, "jobs": 1, **NO_CACHE}),
    ("verify casen --n0",
     ["verify", "casen", "--n", "2", "--jobs", "1", "--no-cache"], 0,
     {"subcommand": "verify casen", "n": 2, "s": 1, "force": False, "jobs": 1,
      **NO_CACHE}),
    ("verify casen --n1",
     ["verify", "casen", "--n", "2", "--force", "--jobs", "1", "--no-cache"], 0,
     {"subcommand": "verify casen", "n": 2, "s": 1, "force": True, "jobs": 1,
      **NO_CACHE}),
    ("verify perturbation --m",
     ["verify", "perturbation", "--m", "4", "--lemma", "III", "--jobs", "1"], 0,
     {"subcommand": "verify perturbation", "m": 4, "lemma": "III", "force": False,
      "jobs": 1}),
    # propbfix takes no --jobs, so its configs record none
    ("verify propbfix-item1 --samples",
     ["verify", "propbfix-item1", "--samples", "5", "--m", "4", "--n", "2"], 0,
     {"subcommand": "verify propbfix-item1", "m": 4, "n": 2, "samples": 5, "seed": 2026,
      "force": False}),
    ("verify propbfix-item2 --seed",
     ["verify", "propbfix-item2", "--seed", "7", "--m", "4", "--n", "5"], 0,
     {"subcommand": "verify propbfix-item2", "m": 4, "n": 5, "seed": 7}),
    ("verify propbfix-item1 --m",
     ["verify", "propbfix-item1", "--m", "4", "--n", "3"], 0,
     {"subcommand": "verify propbfix-item1", "m": 4, "n": 3, "samples": None, "seed": 2026,
      "force": False}),
    ("cache purge --cache-dir",
     ["cache", "purge", "--cache-dir", "{tmp}/c"], 0,
     {"subcommand": "cache purge", "cache_dir": "{tmp}/c"}),
]


def _fill(value, tmp):
    if isinstance(value, str):
        return value.replace("{tmp}", tmp)
    if isinstance(value, dict):
        return {k: _fill(v, tmp) for k, v in value.items()}
    return value


@pytest.mark.parametrize("args,code,config", [c[1:] for c in CONFIG_CASES],
                         ids=[c[0] for c in CONFIG_CASES])
def test_config_and_exit_code_of_every_subcommand(runner, tmp_path, args, code, config):
    (tmp_path / "seq.json").write_text(json.dumps(ITEM1_SEQUENCE))
    res = invoke(runner, *[_fill(a, str(tmp_path)) for a in args])
    assert res.exit_code == code
    assert out_json(res)["config"] == _fill(config, str(tmp_path))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_default_jobs_is_the_affinity_mask(runner, monkeypatch):
    """A run without --jobs takes one worker per core it may run on, not
    per core of the machine, as under taskset -c 0."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    res = invoke(runner, "davenport", "--n", "3", "--no-cache")
    assert res.exit_code == 0 and out_json(res)["config"]["jobs"] == 1


def test_counterexample_exits_one(runner, monkeypatch):
    def failing(n, **kwargs):
        return Report("property-b", {"n": n}, orbits_scanned=1,
                      counterexamples=[{"n": n, "terms": []}])

    monkeypatch.setattr(zerosum.cli, "verify_property_b", failing)
    res = invoke(runner, "verify", "property-b", "--n", "2", "--no-cache")
    assert res.exit_code == 1
    obj = out_json(res)
    assert obj["passed"] is False
    assert obj["counterexamples"] == [{"n": 2, "terms": []}]


def _run_module(*args):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "zerosum.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_exit_codes():
    res = _run_module("--version")
    assert res.returncode == 0
    assert zerosum.__version__ in res.stdout
    res = _run_module("davenport", "--n", "9", "--no-cache")
    assert res.returncode == 3
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "BudgetExceeded",
        "message": "davenport with n=9 exceeds the default budget; "
                   "pass --force to run it anyway",
    }


# each budgeted subcommand at its first size past its default budget, with
# the subcommand and options its error names
OVER_BUDGET = [
    (["davenport", "--n", "8"], "davenport with n=8"),
    (["davenport", "--n", "9"], "davenport with n=9"),
    (["sleq", "--n", "6", "--k", "6"], "sleq with n=6, k=6"),
    (["verify", "property-b", "--n", "7"], "verify property-b with n=7"),
    (["verify", "property-c", "--n", "6"], "verify property-c with n=6"),
    (["verify", "casen", "--n", "6"], "verify casen with n=6, s=1"),
    (["verify", "casen", "--n", "6", "--s", "1"], "verify casen with n=6, s=1"),
    (["verify", "casen", "--n", "4", "--s", "2"], "verify casen with n=4, s=2"),
    (["verify", "casen", "--n", "2", "--s", "3"], "verify casen with n=2, s=3"),
    (["verify", "perturbation", "--m", "7", "--lemma", "I"],
     "verify perturbation with m=7, lemma=I"),
]


def _assert_over_budget(runner, monkeypatch, tmp_path, args, shown):
    """``args`` exits 3 with the budget's one JSON error on stderr, before
    it writes stdout or makes the cache directory."""
    # a search run past the budget would take seconds; fail it at once
    monkeypatch.setattr(zerosum.enumeration, "_search", _no_search)
    cache_dir = tmp_path / "cache"
    res = runner.invoke(main, [*args, "--jobs", "1"],
                        env={zerosum.enumeration.CACHE_ENV_VAR: str(cache_dir)})
    assert res.exit_code == 3
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "BudgetExceeded",
        "message": f"{shown} exceeds the default budget; pass --force to run it anyway",
    }
    assert not cache_dir.exists()


@pytest.mark.parametrize("args,shown", OVER_BUDGET, ids=[" ".join(c[0]) for c in OVER_BUDGET])
def test_over_budget_exits_three_before_the_cache(runner, monkeypatch, tmp_path, args, shown):
    _assert_over_budget(runner, monkeypatch, tmp_path, args, shown)


def test_force_runs_past_the_budget(runner):
    res = invoke(runner, "verify", "casen", "--n", "2", "--s", "3", "--force", "--no-cache")
    assert res.exit_code == 0
    obj = out_json(res)
    del obj["config"], obj["elapsed_ms"]
    assert obj == LEDGER["casen n=2 s=3"]


def test_unwritable_output_exits_two(tmp_path):
    path = tmp_path / "no" / "such" / "x.json"
    res = _run_module("construct", "exceptional", "--n", "5", "--x", "2",
                      "--output", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "FileNotFoundError",
        "message": f"{path}: No such file or directory",
    }


def test_unwritable_cache_dir_exits_two(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = blocker / "cache"
    res = _run_module("davenport", "--n", "2", "--jobs", "1", "--cache-dir", str(cache_dir))
    assert res.returncode == 2
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "CacheUnwritable",
        "message": f"{cache_dir}: Not a directory",
    }


@pytest.mark.parametrize("args", [
    ("davenport", "--n", "2", "--jobs", "1"),
    ("enumerate", "--n", "2", "--length", "2", "--predicate", "all"),
])
def test_unwritable_cache_dir_fails_before_the_search(runner, monkeypatch, tmp_path, args):
    def no_search(*_args, **_kwargs):
        raise AssertionError("the search ran before the cache directory was checked")

    monkeypatch.setattr(zerosum.enumeration, "_search", no_search)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = blocker / "cache"
    res = invoke(runner, *args, "--cache-dir", str(cache_dir))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "CacheUnwritable",
        "message": f"{cache_dir}: Not a directory",
    }


def test_script_target_imports():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, _, attr = re.search(r'^zs = "(.+)"$', text, re.M).group(1).partition(":")
    assert getattr(__import__(module, fromlist=[attr]), attr) is main
