"""The three workloads: what one pass calls, and the exact values it must return.

``search`` and ``sequence-checks`` run in-process as a list of ops (one call
into zerosum each); ``cli-cache`` runs the ``zs`` front end as subprocesses.
Every op's result is checked against known exact values, and the checks
themselves (including an independent subsequence-sum DP for the negative
answers) run outside the timed region.  Functions are looked up on their
modules at call time so that the tracer's wrappers, when installed, are the
ones called.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import gcd

from zerosum import classification, decomposition, enumeration, groups, lifting
from zerosum import perturbation, properties, subsums
from zerosum.sequences import Sequence

from expected import (
    CASEN_5_1,
    DAVENPORT_NODES,
    DECOMPOSITIONS,
    EXCEPTIONAL_COUNT,
    ITEM1_SAMPLES,
    ITEM2_CANDIDATES,
    PERTURBATION_CASES,
    PROPERTY_B,
    PROPERTY_C,
    WITNESS_MODULI,
    WITNESS_SEQUENCES,
    expect as _expect,
)


class Op:
    """One timed call.  ``check`` returns an error message or None;
    ``full_check`` (first pass only) is the expensive part of the check;
    ``fingerprint`` makes results of later passes comparable to the first."""

    __slots__ = ("name", "call", "check", "full_check", "fingerprint")

    def __init__(self, name, call, check, full_check=None, fingerprint=repr):
        self.name = name
        self.call = call
        self.check = check
        self.full_check = full_check
        self.fingerprint = fingerprint


# ---------------------------------------------------------------------------
# independent arithmetic for the checks (no zerosum code)


def _sigma(items, n: int) -> tuple[int, int]:
    return (sum(g[0] * m for g, m in items) % n, sum(g[1] * m for g, m in items) % n)


def _zero_sum_lengths(items, n: int, kmax: int) -> set[int]:
    """Lengths l in [1, kmax] at which some subsequence sums to zero."""
    reach = [set() for _ in range(kmax + 1)]
    reach[0].add((0, 0))
    for (a, b), mult in items:
        for _ in range(mult):
            for l in range(kmax, 0, -1):
                reach[l] |= {((x + a) % n, (y + b) % n) for x, y in reach[l - 1]}
    return {l for l in range(1, kmax + 1) if (0, 0) in reach[l]}


def _divides(sub_items, items) -> bool:
    have = Counter(dict(items))
    return all(have[g] >= m for g, m in sub_items)


def _report_print(rep):
    return rep.to_json(timing=False)


# ---------------------------------------------------------------------------
# search: exhaustive orderly searches, jobs=1, cache off

SEARCH_TABLES = {n: ("perm_table", "add_index_table", "neg_index_table") for n in range(2, 8)}


def _davenport_with_nodes(n: int) -> tuple[int, int]:
    """davenport(n) plus the node count of the SearchStats that the call's
    max_length_with returns; davenport itself returns only the value."""
    inner = enumeration.max_length_with
    seen = []

    def probe(*args, **kwargs):
        res = inner(*args, **kwargs)
        seen.append(res[1].nodes)
        return res

    enumeration.max_length_with = probe
    try:
        value = enumeration.davenport(groups.group(n), jobs=1)
    finally:
        enumeration.max_length_with = inner
    return value, seen[0]


def _report_check(rep, orbits, nodes) -> str | None:
    if not rep.passed:
        return f"{rep.check} {rep.params}: not passed, {len(rep.counterexamples)} counterexamples"
    return _expect((rep.orbits_scanned, rep.details["nodes"]), (orbits, nodes),
                   f"{rep.check} {rep.params} (orbits, nodes)")


def search_ops(seed: int) -> list[Op]:
    """Exhaustive, so the seed is unused."""
    ops = []
    for n in range(2, 8):
        ops.append(Op(
            f"davenport({n})",
            lambda n=n: _davenport_with_nodes(n),
            lambda r, n=n: _expect(r, (2 * n - 1, DAVENPORT_NODES[n]),
                                   f"davenport({n}) (value, nodes)"),
        ))
    for n in range(2, 6):
        ops.append(Op(
            f"s_leq({n},{n})",
            lambda n=n: enumeration.s_leq(groups.group(n), n, jobs=1),
            lambda r, n=n: _expect(r, 3 * n - 2, f"s_leq({n},{n})"),
        ))
    for n, (orbits, nodes) in PROPERTY_B.items():
        ops.append(Op(
            f"property_b({n})",
            lambda n=n: properties.verify_property_b(n, jobs=1),
            lambda r, o=orbits, d=nodes: _report_check(r, o, d),
            fingerprint=_report_print,
        ))
    for n, (orbits, nodes) in PROPERTY_C.items():
        ops.append(Op(
            f"property_c({n})",
            lambda n=n: properties.verify_property_c(n, jobs=1),
            lambda r, o=orbits, d=nodes: _report_check(r, o, d) or _expect(
                r.details["without_basis_form"], 0, f"property_c({r.params['n']}) without_basis_form"),
            fingerprint=_report_print,
        ))
    orbits, nodes, kinds = CASEN_5_1
    ops.append(Op(
        "casen(5,1)",
        lambda: classification.verify_casen(5, 1, jobs=1),
        lambda r: _report_check(r, orbits, nodes) or _expect(r.details["kinds"], kinds, "casen kinds"),
        fingerprint=_report_print,
    ))
    return ops


def search_counts(results: dict) -> dict:
    return {
        "davenport(7).nodes": results["davenport(7)"][1],
        "property_b(6).orbits": results["property_b(6)"].orbits_scanned,
        "property_b(6).nodes": results["property_b(6)"].details["nodes"],
        "property_c(5).orbits": results["property_c(5)"].orbits_scanned,
        "property_c(5).nodes": results["property_c(5)"].details["nodes"],
        "casen(5,1).orbits": results["casen(5,1)"].orbits_scanned,
        "casen(5,1).nodes": results["casen(5,1)"].details["nodes"],
    }


# ---------------------------------------------------------------------------
# sequence-checks: per-sequence checks, no orbit search

# Only what the calls use: index tables for the moduli whose sums are taken
# (N=20 by propbfix item 2), element lists where max_order_elements scans.
SEQUENCE_TABLES = {
    2: ("add_index_table", "neg_index_table"),
    4: ("elements",),
    5: ("elements", "add_index_table", "neg_index_table"),
    6: ("elements",),
    7: ("elements", "add_index_table", "neg_index_table"),
    8: ("elements", "add_index_table", "neg_index_table"),
    20: ("elements", "add_index_table", "neg_index_table"),
}


def _random_basis(m: int, rng: random.Random):
    """Image of the standard basis under a uniform automorphism of (Z/mZ)^2."""
    while True:
        p, q, r, s = (rng.randrange(m) for _ in range(4))
        if gcd((p * s - q * r) % m, m) == 1:
            return (p, r), (q, s)


def _exceptional_params():
    for n in range(2, 9):
        for x in range(2, n - 1):
            if gcd(x, n) != 1:
                continue
            for total in (3, 4):
                for a in range(1, total - 1):
                    for b in range(1, total - a):
                        yield n, x, a, b, total - a - b


def _exceptional_op(n, x, a, b, c):
    seq = classification.construct_exceptional(n, x, a, b, c)
    return seq, list(decomposition.block_decompositions(seq, n, a + b + c - 2, exhaustive=True))


def _exceptional_check(res, n, total) -> str | None:
    seq, decs = res
    items = seq.items()
    if len(seq) != total * n - 1 or _sigma(items, n) != (0, 0):
        return f"exceptional n={n}: wrong length or nonzero sum"
    if not decs:
        return f"exceptional n={n}: no block decomposition"
    for d in decs:
        parts = (d.W0,) + d.blocks
        if len(d.W0) != 2 * n - 1 or any(len(b) != n for b in d.blocks):
            return f"exceptional n={n}: decomposition part lengths"
        if any(_sigma(p.items(), n) != (0, 0) for p in parts):
            return f"exceptional n={n}: decomposition part not zero-sum"
        union = Counter()
        for p in parts:
            union.update(dict(p.items()))
        if union != Counter(dict(items)):
            return f"exceptional n={n}: decomposition does not partition S"
    return None


def _exceptional_full(res, n) -> str | None:
    if _zero_sum_lengths(res[0].items(), n, n - 1):
        return f"exceptional n={n}: zero-sum part shorter than n"
    return None


def _exceptional_print(res):
    seq, decs = res
    return json.dumps([seq.to_json_obj(), [[p.to_json_obj() for p in (d.W0,) + d.blocks]
                                           for d in decs]])


def _witness_check(res, seq, k) -> str | None:
    if res is None:
        return None
    if len(res) != k or not _divides(res.items(), seq.items()):
        return f"witness for length {k} is not a length-{k} subsequence"
    if _sigma(res.items(), seq.group.n) != (0, 0):
        return f"witness for length {k} does not sum to zero"
    return None


def _witness_full(res, seq, k) -> str | None:
    if res is None and k in _zero_sum_lengths(seq.items(), seq.group.n, k):
        return f"no witness returned, but a zero-sum of length {k} exists"
    return None


def _witness_print(res):
    return None if res is None else res.items()


def _perturbation_check(rep, m, lemma, basis) -> str | None:
    if not rep.passed:
        return f"perturbation m={m} {lemma}: {len(rep.counterexamples)} counterexamples"
    if m == 4 and lemma == "II":
        # tightness: item II.1 achieves exactly <f2> of the basis used
        f2 = basis[1]
        line = sorted({((k * f2[0]) % m, (k * f2[1]) % m) for k in range(m)})
        item = rep.details["items"]["1"]
        want = [list(g) for g in line]
        if item["achieved"] != want or item["stated"] != want:
            return f"perturbation m=4 II.1: achieved {item['achieved']} != <f2> {want}"
    return None


def _item1_check(rep, n) -> str | None:
    if not rep.passed:
        return f"propbfix item1 (4,{n}): not passed"
    return _expect(rep.orbits_scanned, ITEM1_SAMPLES, f"propbfix item1 (4,{n}) samples")


def _item2_check(rep) -> str | None:
    # zero hits is the expected outcome: the image of a one-coset sequence
    # is one-coset again, so it never has the item-2 shape
    got = (rep.orbits_scanned, rep.details["hit_count"], rep.status, len(rep.counterexamples))
    return _expect(got, (ITEM2_CANDIDATES, 0, "no qualifying S found", 0),
                   "propbfix item2 (candidates, hits, status, counterexamples)")


def sequence_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for m in (4, 5, 6):
        basis = _random_basis(m, rng)
        for lemma in ("I", "II", "III"):
            ops.append(Op(
                f"perturbation({m},{lemma})",
                lambda m=m, lemma=lemma, basis=basis: perturbation.verify_perturbation(
                    m, lemma, basis=basis, jobs=1),
                lambda r, m=m, lemma=lemma, basis=basis: _perturbation_check(r, m, lemma, basis),
                fingerprint=_report_print,
            ))
    for n in (2, 5):
        s = rng.randrange(2**31)
        ops.append(Op(
            f"propbfix_item1(4,{n})",
            lambda n=n, s=s: lifting.verify_propbfix_item1(4, n, samples=ITEM1_SAMPLES, seed=s),
            lambda r, n=n: _item1_check(r, n),
            fingerprint=_report_print,
        ))
    s = rng.randrange(2**31)
    ops.append(Op(
        "propbfix_item2(4,5)",
        lambda s=s: lifting.verify_propbfix_item2(4, 5, seed=s),
        _item2_check,
        fingerprint=_report_print,
    ))
    for n, x, a, b, c in _exceptional_params():
        ops.append(Op(
            f"exceptional({n},{x},{a},{b},{c})",
            lambda p=(n, x, a, b, c): _exceptional_op(*p),
            lambda r, n=n, t=a + b + c: _exceptional_check(r, n, t),
            lambda r, n=n: _exceptional_full(r, n),
            fingerprint=_exceptional_print,
        ))
    for n in WITNESS_MODULI:
        grp = groups.group(n)
        for i in range(WITNESS_SEQUENCES):
            # lengths sweep [2n, 3n) evenly; the terms are random
            length = 2 * n + i % n
            seq = Sequence.from_terms(
                grp, [(rng.randrange(n), rng.randrange(n)) for _ in range(length)])
            for k in (n, 2 * n - 1):
                ops.append(Op(
                    f"witness(n={n},#{i},k={k})",
                    lambda seq=seq, k=k: subsums.find_zero_sum_subsequence(seq, k),
                    lambda r, seq=seq, k=k: _witness_check(r, seq, k),
                    lambda r, seq=seq, k=k: _witness_full(r, seq, k),
                    fingerprint=_witness_print,
                ))
    return ops


def sequence_counts(results: dict) -> dict:
    cases = sum(
        sum(v["cases"] for v in rep.details["items"].values())
        for name, rep in results.items() if name.startswith("perturbation")
    )
    exc = [r for name, r in results.items() if name.startswith("exceptional")]
    witnesses = [r for name, r in results.items() if name.startswith("witness")]
    item2 = results["propbfix_item2(4,5)"]
    return {
        "perturbation.cases": cases,
        "propbfix_item1.samples": sum(
            results[f"propbfix_item1(4,{n})"].orbits_scanned for n in (2, 5)),
        "propbfix_item2.candidates": item2.orbits_scanned,
        "propbfix_item2.hits": item2.details["hit_count"],
        "exceptional.sequences": len(exc),
        "exceptional.decompositions": sum(len(d) for _, d in exc),
        "witness.queries": len(witnesses),
        "witness.hits": sum(1 for w in witnesses if w is not None),
    }


def sequence_gate(counts: dict) -> list[str | None]:
    """One error message (or None) per exact count of the pass."""
    want = {
        "perturbation.cases": PERTURBATION_CASES,
        "propbfix_item1.samples": 2 * ITEM1_SAMPLES,
        "propbfix_item2.candidates": ITEM2_CANDIDATES,
        "propbfix_item2.hits": 0,
        "exceptional.sequences": EXCEPTIONAL_COUNT,
        "exceptional.decompositions": DECOMPOSITIONS,
        "witness.queries": len(WITNESS_MODULI) * WITNESS_SEQUENCES * 2,
    }
    return [_expect(counts[k], v, k) for k, v in want.items()]
