"""Command-line front end.

JSON to stdout by default (``--pretty`` indents it); every run embeds its
full configuration in the emitted object.  Exit codes: 0 all checks
passed, 1 counterexample found, 2 usage, parse, output or cache error, 3
budget exceeded.

Every subcommand is registered by ``@command(parent, name, *options,
jobs=..., cache=..., budget=...)`` on a body that takes its own options and
returns a Report (exit 1 if it has counterexamples, else 0) or ``(obj,
exit_code)``.  A ``verify`` subcommand is named after its report's
``check``, and takes only the options its check reads.
The helper adds ``--pretty``/``--output``, plus ``--jobs`` (default: the
cores the process may run on) with ``jobs`` and
``--cache-dir``/``--no-cache`` with ``cache``, in which case the body gets
the resolved ``cache``.  A command registered
without ``jobs`` has no ``--jobs``, so click rejects one (exit 2).  It
builds ``config``, maps package errors to exit codes 2 and 3, writes the
JSON and exits.

``budget`` is a predicate on the parsed options, the default budget of a
search or, for ``verify propbfix-item1``, of its residue rows: with it the
helper adds ``--force``, and where the predicate is false and ``--force``
is absent it exits 3 before it resolves the cache or runs the body.  The
budgets live here, one beside each registration; the package runs any
size asked.  Its own BudgetExceeded are not budgets: the search's
depth cap (a search that would never end) and decomposition's cap.

The ``zs`` group callback defaults ``OPENBLAS_NUM_THREADS`` to 1 before any
command binds numpy, so the zs process and the workers it forks start no
BLAS thread pool; a value already set wins.  The package itself leaves the
environment alone; calling ``main`` in-process sets the variable in the
calling process.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb
from typing import Callable

import click
from click.core import ParameterSource

from . import __version__
from .classification import classify_long_zero_sum, construct_exceptional, verify_casen
from .enumeration import PREDICATES, EnumSpec, decode_leaves, enumerate_leaves, resolve_cache
from .enumeration import davenport, s_leq
from .errors import BudgetExceeded, ParseError, ZsError
from .groups import group
from .lifting import verify_propbfix_item1, verify_propbfix_item2
from .perturbation import verify_perturbation
from .properties import verify_property_b, verify_property_c
from .report import Report
from .sequences import Sequence

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def parse_sequence_file(path: str) -> Sequence:
    """Read and validate a sequence JSON file.

    Accepts either a bare sequence object or a report (as written by the
    construct commands) whose "sequence" key holds one.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if isinstance(obj, dict) and isinstance(obj.get("sequence"), dict):
        obj = obj["sequence"]
    return Sequence.from_json_obj(obj)


def int_opt(flag: str, low: int, **attrs):
    """An integer option with lower bound ``low``."""
    return click.option(flag, type=click.IntRange(min=low), **attrs)


n_opt = int_opt("--n", 2, required=True, help="Group modulus.")
jobs_opt = int_opt("--jobs", 1, default=None,
                   help="Worker processes (default: the cores this process may run on); "
                        "a small search stays in-process whatever the value.")
cache_dir_opt = click.option("--cache-dir", type=click.Path(file_okay=False), default=None,
                             help="Result cache directory (default: $ZS_CACHE or ./.zs-cache).")
no_cache_opt = click.option("--no-cache", is_flag=True, help="Disable the result cache.")
force_opt = click.option("--force", is_flag=True, help="Run past the default budget.")
pretty_opt = click.option("--pretty", is_flag=True, help="Indent the JSON output.")
output_opt = click.option("--output", type=click.Path(dir_okay=False), default=None,
                          help="Write the report to a file instead of stdout.")


# the helper's own options, which a budget error does not show
_NOT_SHOWN = {"jobs", "cache_dir", "no_cache"}


def _fail(exc: Exception, message: str, code: int) -> int:
    click.echo(json.dumps({"error": type(exc).__name__, "message": message}), err=True)
    return code


def _execute(body, params: dict, config: dict, pretty: bool, output: str | None) -> int:
    """Run one command body, emit its JSON once; returns the exit code."""
    try:
        result = body(**params)
    except BudgetExceeded as exc:
        return _fail(exc, str(exc), EXIT_BUDGET)
    except ZsError as exc:
        return _fail(exc, str(exc), EXIT_USAGE)
    if isinstance(result, Report):
        code = EXIT_COUNTEREXAMPLE if result.counterexamples else EXIT_PASS
        result = result.to_json_obj(), code
    obj, code = result
    text = json.dumps({**obj, "config": config}, indent=2 if pretty else None, sort_keys=True)
    if not output:
        click.echo(text)
        return code
    try:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        return _fail(exc, f"{output}: {exc.strerror or exc}", EXIT_USAGE)
    return code


def command(parent: click.Group, name: str, *options,
            jobs: bool = False, cache: bool = False,
            budget: Callable[[dict], bool] | None = None):
    """Register the decorated body as subcommand ``name`` of ``parent``
    (see the module docstring)."""
    subcommand = name if parent is main else f"{parent.name} {name}"
    options += ((force_opt,) if budget else ()) + ((jobs_opt,) if jobs else ())
    options += ((cache_dir_opt, no_cache_opt) if cache else ()) + (pretty_opt, output_opt)

    def register(body):
        def run(pretty: bool, output: str | None, **params) -> None:
            if jobs and not params["jobs"]:
                # the cores this process may run on: under taskset -c 0 a
                # default davenport(7) ran 0.88x the wall time of forking
                # os.cpu_count() = 2 workers (BENCH_46.json jobs_default)
                params["jobs"] = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                                  else os.cpu_count() or 1)
            config = {"subcommand": subcommand, **params}
            if budget and not params.pop("force") and not budget(params):
                shown = ", ".join(f"{opt.name}={params[opt.name]}" for opt in cmd.params
                                  if params.get(opt.name) is not None
                                  and opt.name not in _NOT_SHOWN)
                exc = BudgetExceeded(f"{subcommand} with {shown} exceeds the default budget; "
                                     "pass --force to run it anyway")
                sys.exit(_fail(exc, str(exc), EXIT_BUDGET))
            if cache:
                params["cache"] = resolve_cache(
                    params.pop("cache_dir"), enabled=not params.pop("no_cache"))
            sys.exit(_execute(body, params, config, pretty, output))

        for opt in reversed(options):
            run = opt(run)
        cmd = parent.command(name, help=body.__doc__)(run)
        return cmd

    return register


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Zero-sum sequence toolkit for rank-two cyclic groups."""
    # zerosum calls no BLAS routine: its only @ (lifting.image_rows) is on integer arrays
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


construct_grp = click.Group("construct", help="Builders for the named sequence families.")
verify_grp = click.Group("verify",
                         help="Exhaustive and sampled checks of the structure results.")
cache_grp = click.Group("cache", help="Result cache maintenance.")
for grp in (construct_grp, verify_grp, cache_grp):
    main.add_command(grp)


@command(main, "davenport", n_opt, jobs=True, cache=True,
         budget=lambda opts: opts["n"] <= 7)
def davenport_cmd(n, jobs, cache):
    """Davenport constant of (Z/NZ)^2."""
    value = davenport(group(n), jobs=jobs, cache=cache)
    return {"check": "davenport", "n": n, "value": value}, EXIT_PASS


@command(main, "sleq", n_opt,
         int_opt("--k", 1, required=True, help="Zero-sum length threshold."),
         jobs=True, cache=True, budget=lambda opts: opts["n"] <= 5)
def sleq_cmd(n, k, jobs, cache):
    """Least length forcing a nonempty zero-sum subsequence of length <= k."""
    value = s_leq(group(n), k, jobs=jobs, cache=cache)
    return {"check": "sleq", "n": n, "k": k, "value": value}, EXIT_PASS


@command(main, "enumerate", n_opt,
         int_opt("--length", 0, required=True, help="Sequence length."),
         click.option("--predicate", default="all", type=click.Choice(list(PREDICATES))),
         int_opt("--k", 1, default=None,
                 help="Length threshold for the predicates that take one."),
         click.option("--raw", is_flag=True, help="List all sequences, not one per orbit."),
         int_opt("--limit", 0, default=100,
                 help="Cap on listed sequences (0 = no cap); the count is always exact."),
         jobs=True, cache=True)
def enumerate_cmd(n, length, predicate, k, raw, limit, jobs, cache):
    """List sequences with a given property, up to symmetry by default."""
    params = {"k": k} if k is not None else {}
    spec = EnumSpec(n, length, predicate, params, up_to_symmetry=not raw)
    leaves, stats = enumerate_leaves(spec, jobs=jobs, cache=cache)
    listed = leaves if limit == 0 else leaves[:limit]
    return {"check": "enumerate", "count": len(leaves), "nodes": stats.nodes,
            "sequences": [s.to_json_obj() for s in decode_leaves(n, listed)],
            "truncated": len(listed) < len(leaves)}, EXIT_PASS


@command(main, "classify",
         click.option("--file", required=True, type=click.Path(dir_okay=False),
                      help="Sequence JSON file."),
         int_opt("--n", 2, default=None,
                 help="Expected modulus; must match the file when given."))
def classify_cmd(file, n):
    """Sort a long zero-sum sequence into the two structural families."""
    seq = parse_sequence_file(file)
    if n is not None and seq.group.n != n:
        raise ParseError(f"file has modulus {seq.group.n}, expected {n}")
    outcome = classify_long_zero_sum(seq)
    return outcome.to_json_obj(), EXIT_PASS if outcome.classified else EXIT_COUNTEREXAMPLE


@command(construct_grp, "exceptional", n_opt,
         click.option("--x", required=True, type=int, help="Coset parameter."),
         int_opt("--a", 1, default=1), int_opt("--b", 1, default=1),
         int_opt("--c", 1, default=1))
def construct_exceptional_cmd(n, x, a, b, c):
    """The four-element family outside the one-coset classification."""
    seq = construct_exceptional(n, x, a, b, c)
    return {"check": "construct-exceptional", "sequence": seq.to_json_obj()}, EXIT_PASS


@command(verify_grp, "property-b", n_opt, jobs=True, cache=True,
         budget=lambda opts: opts["n"] <= 6)
def property_b_cmd(n, jobs, cache):
    """Every maximal-length minimal zero-sum has the one-coset form."""
    return verify_property_b(n, jobs=jobs, cache=cache)


@command(verify_grp, "property-c", n_opt, jobs=True, cache=True,
         budget=lambda opts: opts["n"] <= 5)
def property_c_cmd(n, jobs, cache):
    """Three-heavy-element profile at length 3(n-1) without short zero-sums."""
    return verify_property_c(n, jobs=jobs, cache=cache)


@command(verify_grp, "casen", n_opt,
         int_opt("--s", 1, default=1, help="Length excess in multiples of n."),
         jobs=True, cache=True,
         budget=lambda opts: ((opts["s"] == 1 and opts["n"] <= 5)
                              or (opts["s"] == 2 and opts["n"] <= 3)))
def casen_cmd(n, s, jobs, cache):
    """Classify every qualifying zero-sum of length (2+s)n-1."""
    return verify_casen(n, s, jobs=jobs, cache=cache)


@command(verify_grp, "perturbation",
         int_opt("--m", 2, required=True, help="Group modulus."),
         click.option("--lemma", required=True, type=click.Choice(["I", "II", "III"])),
         jobs=True, budget=lambda opts: opts["m"] <= 6)
def perturbation_cmd(m, lemma, jobs):
    """Pairwise-move offsets around the maximal-length family."""
    return verify_perturbation(m, lemma, jobs=jobs)


mn_opts = (int_opt("--m", 2, required=True, help="Multiplier: g -> m*g on (Z/mnZ)^2."),
           int_opt("--n", 2, required=True, help="Image modulus."))
seed_opt = click.option("--seed", type=int, default=2026, help="Seed of the random draws.")


@command(verify_grp, "propbfix-item1", *mn_opts,
         int_opt("--samples", 1, default=None,
                 help="Check this many seeded standard-basis rows, not every residue multiset."),
         seed_opt,
         # about C(mn + n - 1, n - 1)/n residue rows: 27,150 at (8,5), 54,081 at (5,6)
         budget=lambda opts: opts["samples"] is not None or comb(
             opts["m"] * opts["n"] + opts["n"] - 1, opts["n"] - 1) // opts["n"] <= 30_000)
def propbfix_item1_cmd(m, n, samples, seed):
    """No image under mult-by-m has a zero-sum part shorter than n."""
    ctx = click.get_current_context()
    if samples is None and ctx.get_parameter_source("seed") != ParameterSource.DEFAULT:
        raise click.UsageError("--seed seeds the draws of --samples; pass both")
    return verify_propbfix_item1(m, n, samples=samples, seed=seed)


@command(verify_grp, "propbfix-item2", *mn_opts, seed_opt)
def propbfix_item2_cmd(m, n, seed):
    """Sampled lifts of the exceptional image shape under mult-by-m."""
    return verify_propbfix_item2(m, n, seed=seed)


@command(cache_grp, "purge", cache_dir_opt)
def cache_purge_cmd(cache_dir):
    """Remove all cached search results."""
    cache = resolve_cache(cache_dir)
    removed = cache.purge()
    return {"check": "cache-purge", "removed": removed, "directory": cache.directory}, EXIT_PASS


if __name__ == "__main__":
    main()
