"""Acceptance suite: one test per criterion, each printing a PASS line.

Every test is hermetic (no cache) and pinned to jobs=1 unless the
criterion itself is about worker counts.
"""

import itertools
import random
from math import gcd

import pytest

from zerosum import enumeration, perturbation
from zerosum.classification import construct_exceptional, verify_casen
from zerosum.enumeration import davenport, s_leq
from zerosum.groups import group
from zerosum.lifting import verify_propbfix_item1
from zerosum.perturbation import verify_perturbation
from zerosum.properties import property_a_witnesses, verify_property_b, verify_property_c
from zerosum.sequences import Sequence
from zerosum.subsums import forward_layers, has_short_zero_sum, restricted_sums


def report_line(idx, text):
    print(f"[criterion {idx:2d}] PASS: {text}")


def test_criterion_01_davenport_values():
    got = {n: davenport(group(n), jobs=1) for n in range(2, 8)}
    assert got == {n: 2 * n - 1 for n in range(2, 8)}, got
    report_line(1, f"davenport == 2N-1 for N in [2,7]: {got}")


def test_criterion_02_short_zero_sum_constant():
    got = {n: s_leq(group(n), n, jobs=1) for n in range(2, 6)}
    assert got == {n: 3 * n - 2 for n in range(2, 6)}, got
    report_line(2, f"s_leq(N) == 3N-2 for N in [2,5]: {got}")


def test_criterion_03_property_b():
    scanned = {}
    for n in range(2, 7):
        rep = verify_property_b(n, jobs=1)
        assert rep.passed, rep.to_json()
        assert rep.counterexamples == []
        scanned[n] = rep.orbits_scanned
    report_line(3, f"property B zero counterexamples, orbits {scanned}")


def test_criterion_04_property_c():
    scanned = {}
    for n in range(2, 6):
        rep = verify_property_c(n, jobs=1)
        assert rep.passed, rep.to_json()
        assert rep.counterexamples == []
        assert rep.details["without_basis_form"] == 0  # 100% closed-form match
        scanned[n] = rep.orbits_scanned
    report_line(4, f"property C zero counterexamples, 100% form match, orbits {scanned}")


def test_criterion_05_perturbation_suites():
    cases = 0
    for m in (4, 5, 6):
        for lemma in ("I", "II", "III"):
            rep = verify_perturbation(m, lemma, jobs=1)
            assert rep.passed, rep.to_json()
            cases += sum(v["cases"] for v in rep.details["items"].values())
    tight = verify_perturbation(4, "II", jobs=1)
    f2_line = sorted([0, k] for k in range(4))
    assert tight.details["items"]["1"]["achieved"] == f2_line
    assert tight.details["items"]["1"]["stated"] == f2_line
    report_line(5, f"13 perturbation items pass for m in {{4,5,6}} "
                   f"({cases} move cases); II.1 achieved set == <f2> at m=4")


def test_criterion_06_corrected_classification():
    rep = verify_casen(5, 1, jobs=1)
    assert rep.counterexamples == [], rep.to_json()
    kinds = rep.details["kinds"]
    assert kinds.get("unclassified", 0) == 0
    assert kinds.get("item2", 0) >= 1
    report_line(6, f"casen(5,1): {rep.orbits_scanned} orbits, kinds {kinds}, "
                   f"zero unclassified, item2-only >= 1")


def test_criterion_07_exceptional_family():
    built = 0
    for n in range(2, 9):
        xs = [x for x in range(2, n - 1) if gcd(x, n) == 1]
        for x in xs:
            for total in (3, 4):
                for a in range(1, total - 1):
                    for b in range(1, total - a):
                        c = total - a - b
                        seq = construct_exceptional(n, x, a, b, c)
                        assert len(seq) == total * n - 1
                        assert seq.is_zero_sum()
                        assert (0, 0) not in restricted_sums(seq, 1, n - 1)
                        assert property_a_witnesses(seq) == []
                        built += 1
    # 8 valid x across moduli 5, 7, 8; one split of 3 plus three splits of 4
    assert built == 8 * 4
    report_line(7, f"{built} exceptional instances verified "
                   f"(zero-sum, length, no short zero-sum, no witness)")


def test_criterion_08_oracle_equivalence():
    checked = 0
    for n in range(2, 6):
        grp = group(n)
        rng = random.Random(800 + n)
        for _ in range(200):
            length = rng.randrange(15)
            seq = Sequence.from_terms(
                grp,
                (
                    (rng.randrange(n), rng.randrange(n))
                    for _ in range(length)
                ),
            )
            # power-set oracle: sums reachable at each exact size
            by_len = [set() for _ in range(length + 1)]
            items = seq.items()
            ranges = [range(m + 1) for _, m in items]
            for counts in itertools.product(*ranges):
                size = sum(counts)
                a = sum(c * g[0] for (g, _), c in zip(items, counts)) % n
                b = sum(c * g[1] for (g, _), c in zip(items, counts)) % n
                by_len[size].add((a, b))
            # the layers the verifiers' DP builds, at every exact length
            layers = forward_layers(grp, [grp.index(g) for g in seq], length)[-1]
            for size in range(length + 1):
                got = {grp.unindex(i) for i in range(grp.size)
                       if layers >> size * grp.size + i & 1}
                assert got == by_len[size]
            for lmin in range(length + 1):
                expect = set()
                for lmax in range(lmin, length + 1):
                    expect |= by_len[lmax]
                    assert restricted_sums(seq, lmin, lmax) == expect
            for k in range(length + 1):
                short = any((0, 0) in by_len[size] for size in range(1, k + 1))
                assert has_short_zero_sum(seq, k) == short
            assert has_short_zero_sum(seq, None) == short
            # three (lo, hi) window draws per sequence: part of the seeded
            # stream that fixes these 800 sequences
            for _ in range(3):
                rng.randrange(rng.randrange(length + 1), length + 1)
            checked += 1
    assert checked == 800
    report_line(8, "forward_layers == power-set oracle at every exact length, "
                   "restricted_sums at every (lmin, lmax) window and "
                   "has_short_zero_sum at every k, on 800 seeded sequences")


def test_criterion_09_image_transfer_item1():
    for n in (2, 5):
        rep = verify_propbfix_item1(4, n, samples=10_000, seed=2026)
        assert rep.passed, rep.to_json()
        assert rep.orbits_scanned == 10_000
        assert rep.counterexamples == []
    report_line(9, "image of 10^4 sampled maximal-length sequences: zero-sum, "
                   "no zero-sum part shorter than n, for (m,n)=(4,2),(4,5)")


def test_criterion_10_determinism_across_jobs(monkeypatch):
    # a search at jobs=3 forks once it has walked 64 nodes, and lemma I
    # forks for any grid of two residue multisets or more
    monkeypatch.setattr(enumeration, "_SERIAL_NODES", 64)
    monkeypatch.setattr(perturbation, "_SERIAL_GRID", 2)
    runs = [
        lambda jobs: verify_property_b(4, jobs=jobs),
        lambda jobs: verify_property_c(4, jobs=jobs),
        lambda jobs: verify_casen(5, 1, jobs=jobs),
        lambda jobs: verify_perturbation(5, "I", jobs=jobs),
        lambda jobs: verify_perturbation(4, "III", jobs=jobs),
    ]
    for make in runs:
        solo = make(1).to_json(timing=False)
        fanned = make(3).to_json(timing=False)
        assert solo == fanned
    report_line(10, f"{len(runs)} report-emitting suites byte-identical "
                    f"at jobs=1 and jobs=3 (timing excluded)")
