"""The ledger of pinned results, ``tests/ledger.json``.

Each entry maps a key such as ``"property-b n=6"`` to the exact object its
call returns: a report's ``to_json_obj(timing=False)``, the value of
``davenport`` or ``s_leq`` with the SearchStats of its search, as
``{"value", "stats"}``, or the count, nodes and leaves of an enumeration
(the census keeps count and nodes only).  A key is the check's name followed by its
arguments, ``name=value`` or a bare flag; :func:`run` maps it to its call.
The file must be ``dumps`` of its own content, so that a diff shows one
field per line, and a duplicated key is an error, not a dropped row.  Each
report entry hashes, as ``json.dumps(entry, sort_keys=True)``, to the
sha256 digest it replaced; CHANGES.md records which commit each digest was
taken from.
"""

import json
from pathlib import Path

from zerosum import enumeration
from zerosum.classification import verify_casen
from zerosum.groups import group
from zerosum.lifting import verify_propbfix_item1
from zerosum.perturbation import verify_perturbation
from zerosum.properties import verify_property_b, verify_property_c

PATH = Path(__file__).with_name("ledger.json")


def dumps(ledger):
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def _no_duplicates(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicated key {key!r}")
        obj[key] = value
    return obj


def load(path=PATH):
    text = path.read_text()
    ledger = json.loads(text, object_pairs_hook=_no_duplicates)
    if text != dumps(ledger):
        raise ValueError(f"{path.name} is not in the form of ledger.dumps")
    return ledger


def _with_stats(fn, *args, jobs):
    """``fn``'s value and the SearchStats of the one max_length_with call
    it makes, which ``fn`` itself does not return."""
    inner, seen = enumeration.max_length_with, []

    def probe(*probe_args, **kwargs):
        longest, stats = inner(*probe_args, **kwargs)
        seen.append(stats)
        return longest, stats

    enumeration.max_length_with = probe
    try:
        value = fn(*args, jobs=jobs)
    finally:
        enumeration.max_length_with = inner
    (stats,) = seen
    return {"value": value, "stats": stats.__dict__}


def _leaves(jobs, n, length, predicate="all", k=None, raw=False, census=False):
    spec = enumeration.EnumSpec(n, length, predicate, {} if k is None else {"k": k},
                                up_to_symmetry=not raw)
    leaves, stats = enumeration.enumerate_leaves(spec, jobs=jobs)
    entry = {"count": len(leaves), "nodes": stats.nodes}
    return entry if census else {**entry, "leaves": [list(t) for t in leaves]}


def _report(verify):
    return lambda jobs, **args: verify(**args, jobs=jobs).to_json_obj(timing=False)


CALLS = {
    "davenport": lambda jobs, n: _with_stats(enumeration.davenport, group(n), jobs=jobs),
    "s_leq": lambda jobs, n, k: _with_stats(enumeration.s_leq, group(n), k, jobs=jobs),
    "property-b": _report(verify_property_b),
    "property-c": _report(verify_property_c),
    "casen": _report(verify_casen),
    "perturbation": _report(verify_perturbation),
    # item 1 runs in-process and takes no jobs
    "propbfix-item1": lambda jobs, **args: verify_propbfix_item1(**args).to_json_obj(timing=False),
    "leaves": _leaves,
    "census": lambda jobs, **args: _leaves(jobs, **args, census=True),
}
SEARCHES = ("davenport", "s_leq", "property-b", "property-c", "casen")  # the orderly search


def run(key, jobs=1):
    """The object the call that ``key`` names returns, at ``jobs``."""
    check, *words = key.split()
    args = {}
    for word in words:
        name, eq, value = word.partition("=")
        args[name] = (int(value) if value.isdigit() else value) if eq else True
    return CALLS[check](jobs, **args)


LEDGER = load()
