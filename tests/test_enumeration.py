from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import zerosum
from zerosum import enumeration, group, is_minimal_zero_sum, is_zero_sum_free, restricted_sums
from zerosum.enumeration import (
    EnumSpec,
    ResultCache,
    _Engine,
    _compile_predicate,
    _reach_rows,
    _reach_table,
    davenport,
    enumerate_sequences,
    max_length_with,
    resolve_cache,
    s_leq,
)
from zerosum.errors import BudgetExceeded, PreconditionViolated, SchemaError
from zerosum.sequences import Sequence

from oracles import (
    naive_canonical,
    naive_is_minimal_zero_sum,
    naive_is_zero_sum_free,
    naive_reach_rows,
    naive_restricted_sums,
    orbit_size,
    random_sequence,
)
import ledger
from ledger import LEDGER


def brute_force_census(n, length, keep):
    """All multisets of the given length satisfying ``keep``, plus the set of
    their canonical forms; the slow reference path for the engine."""
    grp = group(n)
    raw = []
    for combo in itertools.combinations_with_replacement(grp.elements(), length):
        s = Sequence.from_terms(grp, combo)
        if keep(s):
            raw.append(s)
    return raw, {s.canonicalize() for s in raw}


@pytest.mark.parametrize(
    "n,length,predicate,naive",
    [
        (2, 3, "zero-sum-free", naive_is_zero_sum_free),
        (3, 4, "zero-sum-free", naive_is_zero_sum_free),
        (2, 3, "minimal-zero-sum", naive_is_minimal_zero_sum),
        (3, 5, "minimal-zero-sum", naive_is_minimal_zero_sum),
        (4, 4, "minimal-zero-sum", naive_is_minimal_zero_sum),
    ],
)
def test_engine_matches_brute_force_census(n, length, predicate, naive):
    raw_expected, orbit_reps = brute_force_census(n, length, naive)
    raw, _ = enumerate_sequences(
        EnumSpec(n, length, predicate, up_to_symmetry=False)
    )
    assert sorted(s.items() for s in raw) == sorted(s.items() for s in raw_expected)
    canon, stats = enumerate_sequences(EnumSpec(n, length, predicate))
    assert set(canon) == orbit_reps
    assert stats.leaves == len(orbit_reps)
    # each representative is its own canonical form, exactly once per orbit
    assert all(s.canonicalize() == s for s in canon)
    assert len(set(canon)) == len(canon)


@pytest.mark.parametrize("n,k,length", [(3, 2, 5), (4, 3, 6)])
def test_no_short_zero_sum_census(n, k, length):
    def keep(s):
        return (0, 0) not in restricted_sums(s, 1, k)

    raw_expected, orbit_reps = brute_force_census(n, length, keep)
    raw, _ = enumerate_sequences(
        EnumSpec(n, length, "no-short-zero-sum", {"k": k}, up_to_symmetry=False)
    )
    assert len(raw) == len(raw_expected)
    canon, _ = enumerate_sequences(EnumSpec(n, length, "no-short-zero-sum", {"k": k}))
    assert set(canon) == orbit_reps


@pytest.mark.parametrize("n,k,length", [(3, 2, 8), (4, 3, 7)])
def test_zero_sum_no_short_census(n, k, length):
    def keep(s):
        return s.is_zero_sum() and (0, 0) not in restricted_sums(s, 1, k)

    raw_expected, orbit_reps = brute_force_census(n, length, keep)
    canon, _ = enumerate_sequences(EnumSpec(n, length, "zero-sum-no-short", {"k": k}))
    assert set(canon) == orbit_reps
    raw, _ = enumerate_sequences(
        EnumSpec(n, length, "zero-sum-no-short", {"k": k}, up_to_symmetry=False)
    )
    assert len(raw) == len(raw_expected)


def _sibling_rules(grp, P, g):
    """The rules of the sibling test that some automorphism triggers for the
    child P + [g] of a canonical P, recomputed one automorphism at a time
    from their statement in the enumeration docstring."""
    t0 = P[0]
    if grp.orbit_tables()[0][g] < t0:
        return {"orbit-minimum cut"}
    child = P + [g]
    rules = set()
    for alpha in grp.perm_table().tolist():
        image, v = sorted(alpha[x] for x in P), alpha[g]
        if image[0] == t0:  # alpha sends a term of P to t0
            j = next((i for i, (a, b) in enumerate(zip(image, P)) if a != b), None)
            x = g if j is None else P[j]
            if v < x:
                rules.add("counting-rule reject")
            elif j is not None and v == x != g and P[j:].count(x) == 1:
                lost = sorted(image + [v]) < child
                rules.add("tie rejected" if lost else "tie accepted")
        elif v == t0:
            if P.count(t0) > 1:
                rules.add("multiplicity >= 2 accept")
            elif [t0] + image < child:
                rules.add("alpha(g) = t0 reject")
    return rules


def _nodes(engine, batch):
    """The nodes of the (P, candidates) of ``batch``, all P of one length,
    as the engine builds them, with those candidates; the test reads no
    sums, so that slot carries each node's place in the batch."""
    roots = [engine._root(tuple(P)) for P, _ in batch]
    cands = np.zeros((len(batch), engine.grp.size), bool)
    for i, (_, gs) in enumerate(batch):
        cands[i, gs] = True
    return engine._nodes(np.concatenate([r.terms for r in roots]), np.arange(len(batch)),
                         np.concatenate([r.layers for r in roots]), cands,
                         np.zeros(len(batch), np.int16))


def _admit(engine, batch):
    """The batched sibling test on one chunk: the admitted candidates of
    each (P, candidates) of ``batch``, all P of one length."""
    nodes = _nodes(engine, batch)
    admitted = [[] for _ in batch]
    for i, row in zip(nodes.sums, engine._admitted(nodes)[0]):
        admitted[i] = [g for g in batch[i][1] if row[g]]
    return admitted


def _check_siblings(grp, engine, P, rules):
    """The sibling test of P with every g >= P[-1] as candidates, against
    naive_canonical(P + [g]); returns the admitted g."""
    cands = list(range(P[-1] if P else 0, grp.size))
    expected = []
    for g in cands:
        child = Sequence.from_terms(grp, map(grp.unindex, P + [g]))
        if naive_canonical(child) == child:
            expected.append(g)
        if P:
            rules |= _sibling_rules(grp, P, g)
    assert _admit(engine, [(P, cands)]) == [expected], P
    return expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sibling_test_matches_naive_canonical_exhaustively(n):
    """Every canonical P of length <= 3 and every g >= P[-1]; each g alone
    as well, as for a forced closing term, and all P of one length in one
    batch."""
    grp = group(n)
    engine = _Engine(grp, "all", {}, None, True)
    rules = set()
    for length in range(4):
        batch, admitted = [], []
        for P in itertools.combinations_with_replacement(range(grp.size), length):
            seq = Sequence.from_terms(grp, map(grp.unindex, P))
            if naive_canonical(seq) != seq:
                continue
            P = list(P)
            admitted.append(_check_siblings(grp, engine, P, rules))
            batch.append((P, list(range(P[-1] if P else 0, grp.size))))
            singly = [
                g for g in range(P[-1] if P else 0, grp.size) if _admit(engine, [(P, [g])])[0]
            ]
            assert singly == admitted[-1], P
        assert _admit(engine, batch) == admitted
    if n == 4:
        assert rules == {
            "orbit-minimum cut", "counting-rule reject", "tie accepted", "tie rejected",
            "alpha(g) = t0 reject", "multiplicity >= 2 accept",
        }


@pytest.mark.parametrize("n", range(2, 9))
def test_orbit_test_matches_naive_canonical(n):
    grp = group(n)
    engine = _Engine(grp, "all", {}, None, True)
    rng = random.Random(700 + n)
    rules = set()
    for _ in range(6 if n < 7 else 2):
        s = naive_canonical(random_sequence(rng, grp, rng.randrange(1, 9)))
        _check_siblings(grp, engine, [grp.index(g) for g in s], rules)
    if n >= 4:
        # the cut needs t0 > 1, which random canonical P rarely have; the
        # exhaustive test covers it
        assert {
            "counting-rule reject", "tie accepted", "tie rejected", "alpha(g) = t0 reject",
        } <= rules


def _canonical_prefix(rng, grp, length):
    """A random canonical index tuple of the given length whose terms lie
    in a random subgroup d*G, so that batches mix their first terms t0."""
    n = grp.n
    d = rng.choice([d for d in range(1, n) if n % d == 0] or [1])
    terms = [grp.element(d * rng.randrange(n), d * rng.randrange(n)) for _ in range(length)]
    if all(t == grp.zero for t in terms):
        terms[0] = grp.element(0, d)
    return [grp.index(g) for g in Sequence.from_terms(grp, terms).canonicalize()]


def _rescanned_segments(grp, P, mask):
    """The segments of R_P after the multiplicity cut, read off P by
    counting each distinct term (none when no candidate is left): the
    reference for the engine's multiplicity cut."""
    orbit_min, _, start = grp.orbit_tables()
    t0, copies, segments = P[0], P.count(P[0]), []
    if not mask:
        return segments
    for e in dict.fromkeys(P):
        if orbit_min[e] == t0:
            short = copies - P.count(e)
            if short == 0 or (short == 1 and e == P[-1] and mask >> e & 1):
                segments.append(slice(int(start[e]), int(start[e + 1])))
    return segments


def test_multiplicity_cut_matches_a_rescan():
    """Every prefix of random canonical P at n = 3..8, built a term at a
    time, gets the segments of R_P that a rescan of its terms gives, with
    P[-1] a candidate and without.  The prefixes take in a last term
    repeated away from t0, terms of t0's orbit as frequent as t0, and the
    P[-1] one copy short of t0."""
    seen = set()
    for n in range(3, 9):
        grp = group(n)
        engine = _Engine(grp, "all", {}, None, True)
        orbit_min, full = grp.orbit_tables()[0], (1 << grp.size) - 1
        rng = random.Random(1100 + n)
        for _ in range(60):
            P = _canonical_prefix(rng, grp, rng.randrange(1, 10))
            node = engine._root(())
            for k, g in enumerate(P, 1):
                node = engine._children(node, np.zeros(1, np.int16), np.array([g], np.int16))
                T = tuple(node.terms[0, :-1].tolist())
                assert T == tuple(P[:k])
                t0, last = T[0], T[-1]
                if k > 1 and last == T[-2] != t0:
                    seen.add("repeated last term")
                if sum(orbit_min[e] == t0 and T.count(e) == T.count(t0) for e in set(T)) > 1:
                    seen.add("heavy orbit term")
                if orbit_min[last] == t0 and T.count(last) == T.count(t0) - 1:
                    seen.add("one copy short")
                not_below = sum(1 << g for g in range(grp.size) if orbit_min[g] >= t0)
                for mask in (full >> last << last, full >> last << last & ~(1 << last)):
                    cands = np.array([[mask >> g & 1 for g in range(grp.size)]], bool)
                    nodes = engine._nodes(node.terms, node.sums, node.layers, cands, node.up)
                    segments = []
                    if len(nodes.terms):
                        tested, _ = engine._tested(nodes.terms[:, :k], cands)
                        start, stab = engine.start, engine.stabilizer[t0]
                        segments = [slice(int(start[T[j]]), int(start[T[j]] + stab))
                                    for j in tested[0].nonzero()[0]]
                    expected = _rescanned_segments(grp, T, mask & not_below)
                    assert segments == expected, (n, T, mask >> last & 1)
    assert seen == {"repeated last term", "heavy orbit term", "one copy short"}


@pytest.mark.parametrize("n,naive", [(3, 40), (5, 30), (6, 20), (8, 10), (9, 3)])
def test_batched_sibling_test_matches_single_nodes(n, naive):
    """Random batches of twelve canonical P of one length, with random
    candidate sets (one candidate, as for a forced closing term, up to all
    g >= P[-1]) and mixed first terms t0: each batch decides every node as
    a batch of that node alone does, and ``naive`` random (P, g) of each
    batch as naive_canonical(P + [g]).  n = 8 has 64 elements and n = 9
    has 81, so that candidate masks are as wide as and wider than 64 bits."""
    grp = group(n)
    engine = _Engine(grp, "all", {}, None, True)
    rng = random.Random(900 + n)
    rules, firsts = set(), set()
    for length in range(1, 8):
        batch = []
        for _ in range(12):
            P = _canonical_prefix(rng, grp, length)
            above = list(range(P[-1], grp.size))
            count = min(len(above), rng.choice([1, 2, 5, len(above)]))
            batch.append((P, sorted(rng.sample(above, count))))
            firsts.add(P[0])
        admitted = _admit(engine, batch)
        assert admitted == [_admit(engine, [node])[0] for node in batch]
        pairs = [(P, g, kept) for (P, cands), kept in zip(batch, admitted) for g in cands]
        for P, g, kept in rng.sample(pairs, min(naive, len(pairs))):
            child = Sequence.from_terms(grp, map(grp.unindex, P + [g]))
            assert (g in kept) == (naive_canonical(child) == child), (P, g)
            rules |= _sibling_rules(grp, P, g)
    assert len(firsts) > 1
    assert {
        "counting-rule reject", "tie accepted", "tie rejected", "alpha(g) = t0 reject",
    } <= rules


@pytest.mark.parametrize("n", range(2, 11))
def test_images_match_a_gather_and_sort(n):
    """_images sorts a span of rows at a time by one flat sort of keys
    tagged with each row's index in its span; its rows equal the images
    gathered off the perm table and sorted row by row, for images of b = 2
    (n = 2) to 7 (n = 9, 10) bits, rows of 1 to 2n - 1 terms with ties, and
    row counts on either side of the span and over several spans."""
    grp = group(n)
    engine = _Engine(grp, "all", {}, None, True)
    span, perm = len(engine.tags), grp.perm_table()
    rng = np.random.default_rng(1500 + n)
    for k in range(1, 2 * n):
        for count in (1, span - 1, span, span + 1, 3 * span + 7):
            rows = rng.integers(0, len(perm), count).astype(engine.order.dtype)
            terms = rng.integers(0, grp.size, (count, k)).astype(np.int16)
            ties = rng.random((count, k - 1)) < 0.4
            terms[:, 1:][ties] = terms[:, :-1][ties]  # a term repeating the one before it
            images = engine._images(rows, terms)
            assert images.dtype == np.int16
            expected = np.sort(perm[rows[:, None], terms], axis=1)
            assert np.array_equal(images, expected), (k, count)


def _int_candidates(engine, P):
    """The candidate mask of the node P by the int guard: the terms g >=
    P[-1] with ~blocked(state), cut by reachability, or the one forced term
    that closes a zero-sum at the last length."""
    grp, guard = engine.grp, engine.guard
    add, neg = grp.add_index_table(), grp.neg_index_table()
    state, sigma = guard.fresh(), 0
    for g in P:
        state, sigma = guard.extend(state, g), add[sigma][g]
    blocked, last = guard.blocked(state), P[-1] if P else 0
    if engine.closes and len(P) + 1 == engine.length:
        g = neg[sigma]
        return 1 << g if g >= last and (guard.k is None or not blocked >> g & 1) else 0
    mask = ((1 << grp.size) - 1) >> last << last & ~blocked
    if engine.closes and engine.length is not None:
        reach, j = _reach_table(grp, engine.length), engine.length - len(P) - 1
        mask &= sum(1 << g for g in range(grp.size)
                    if reach[g] >> j * grp.size + neg[add[sigma][g]] & 1)
    return mask


@pytest.mark.parametrize("name,params", [
    ("all", {}), ("zero-sum-free", {}), ("minimal-zero-sum", {}),
    ("no-short-zero-sum", {"k": 3}), ("zero-sum-no-short", {"k": 3}),
])
def test_candidate_rows_match_the_int_formula(name, params):
    """The candidate row the engine builds for a batch of random canonical
    prefixes, their guard layers extended a term at a time, is the mask of
    the int guard's formula: at the last length, one below it and with
    room to spare, and with no length bound; n = 9 takes rows past 64
    bits."""
    rng = random.Random(1300)
    for n in (3, 5, 9):
        grp = group(n)
        for length in range(1, 7):
            prefixes = [_canonical_prefix(rng, grp, length) for _ in range(8)]
            terms = np.array([P + [grp.size] for P in prefixes], np.int16)
            for total in (length + 1, length + 2, length + 4, None):
                engine = _Engine(grp, name, params, total, True)
                layers = engine.guard.fresh_rows(len(prefixes))
                sums = np.zeros(len(prefixes), np.int16)
                for i in range(length):
                    layers = engine.guard.extend_rows(layers, terms[:, i])
                    sums = engine.add[sums, terms[:, i]]
                rows = engine._candidates(terms, layers, sums)
                for P, row in zip(prefixes, rows):
                    got = sum(1 << int(g) for g in row.nonzero()[0])
                    assert got == _int_candidates(engine, P), (n, P, total)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reach_table_matches_brute_force(n):
    grp = group(n)
    add = grp.add_index_table()
    reach = _reach_table(grp, 4)
    for g in range(grp.size + 1):
        for j in range(5):
            sums = set()
            for terms in itertools.combinations_with_replacement(range(g, grp.size), j):
                total = 0
                for t in terms:
                    total = add[total][t]
                sums.add(total)
            layer = reach[g] >> j * grp.size & (1 << grp.size) - 1
            assert layer == sum(1 << s for s in sums), (g, j)


@pytest.mark.parametrize("n", range(2, 10))
def test_reach_rows_match_a_bit_at_a_time(n):
    """The unpacked and gathered ROWS[j, s, g] equal the bits read one at a
    time off _reach_table, at the reach cut's length 2n - 1 and a length
    with more layers than that."""
    grp = group(n)
    for max_len in (2 * n - 1, 2 * n + 2):
        rows = _reach_rows(grp, max_len)
        assert rows.dtype == bool and rows.shape == (max_len, grp.size, grp.size)
        assert rows.tolist() == naive_reach_rows(grp, _reach_table(grp, max_len), max_len), max_len


@pytest.mark.parametrize(
    "name", ["all", "zero-sum-free", "minimal-zero-sum", "no-short-zero-sum", "zero-sum-no-short"]
)
def test_predicate_states_match_oracles(name):
    """Walk 200 seeded sorted tuples, keeping each term the predicate admits;
    every admit/reject decision (a bit of ``blocked``) must match the
    brute-force oracle."""
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(2, 6)
        grp = group(n)
        k = rng.randrange(1, n + 1)
        params = {"k": k} if "short" in name else {}
        guard, closes = _compile_predicate(grp, name, params)
        state, kept = guard.fresh(), []
        for g in sorted(rng.randrange(grp.size) for _ in range(rng.randrange(1, 10))):
            s = Sequence.from_terms(grp, map(grp.unindex, kept + [g]))
            if name == "all":
                ok = True
            elif params:
                ok = (0, 0) not in naive_restricted_sums(s, 1, k)
            else:
                ok = naive_is_zero_sum_free(s)
            blocked = guard.blocked(state)
            assert (not blocked >> g & 1) == ok, (name, n, kept, g)
            if closes and not params:
                # the engine does not test a closing term against the guard:
                # a zero sum closing a zero-sum free prefix is always minimal
                if s.is_zero_sum():
                    assert blocked >> g & 1
                    assert naive_is_minimal_zero_sum(s)
            if ok:
                kept.append(g)
                state = guard.extend(state, g)


def test_raw_count_equals_sum_of_orbit_sizes():
    spec_raw = EnumSpec(4, 5, "zero-sum-free", up_to_symmetry=False)
    spec_can = EnumSpec(4, 5, "zero-sum-free")
    raw, _ = enumerate_sequences(spec_raw)
    canon, _ = enumerate_sequences(spec_can)
    assert len(raw) == sum(orbit_size(s) for s in canon)


def test_results_are_lex_sorted_and_deterministic_across_jobs():
    spec = EnumSpec(5, 9, "minimal-zero-sum")
    one, stats_one = enumerate_sequences(spec, jobs=1)
    two, stats_two = enumerate_sequences(spec, jobs=3)
    assert one == two
    assert stats_one == stats_two
    keys = [tuple(s) for s in one]
    assert keys == sorted(keys)


# the ledger's searches that the budget tests rerun, at jobs 1 and 2 and for
# each chunk and serial budget, an opt-in list: a row added to the ledger is
# not rerun unless named here, and test_walk_rows_are_light keeps each named
# row at no more than WALK_NODES pinned nodes
WALK = [
    "casen n=2 s=1", "casen n=2 s=2", "casen n=2 s=3", "casen n=3 s=1", "casen n=3 s=2",
    "casen n=4 s=1", "casen n=5 s=1",
    "davenport n=2", "davenport n=3", "davenport n=4", "davenport n=5", "davenport n=6",
    "davenport n=7",
    "property-b n=2", "property-b n=3", "property-b n=4", "property-b n=5", "property-b n=6",
    "property-c n=2", "property-c n=3", "property-c n=4", "property-c n=5",
    "s_leq n=2 k=2", "s_leq n=3 k=3", "s_leq n=4 k=4", "s_leq n=5 k=5",
]
WALK_NODES = 30_000
LEAVES = [key for key in LEDGER if key.startswith("leaves ")]


def test_walk_rows_are_light():
    """Every WALK row is a ledger search pinned at no more than WALK_NODES
    nodes, so that a heavy row fails here instead of slowing the budget
    tests, which rerun each one up to seven times."""
    for key in WALK:
        entry = LEDGER[key]
        assert key.split()[0] in ledger.SEARCHES, key
        assert (entry.get("stats") or entry["details"])["nodes"] <= WALK_NODES, key


def _assert_pinned(keys, jobs):
    for key in keys:
        assert ledger.run(key, jobs) == LEDGER[key], (jobs, key)


def _assert_walk_pinned(jobs, keys=WALK):
    """The ledger entries of ``keys`` and LEAVES, and the depth cap 16 of
    the no-short-zero-sum search with k = 2 over (Z/4Z)^2, at ``jobs``."""
    _assert_pinned(keys + LEAVES, jobs)
    with pytest.raises(BudgetExceeded):
        max_length_with(group(4), "no-short-zero-sum", {"k": 2}, jobs=jobs, depth_cap=16)


def _record_fan_out(monkeypatch) -> list:
    """The (jobs, units handed on) of every fan_out call from now on."""
    handed = []
    fan_out = enumeration.fan_out

    def recorded(work, units, jobs):
        handed.append((jobs, len(units)))
        return fan_out(work, units, jobs)

    monkeypatch.setattr(enumeration, "fan_out", recorded)
    return handed


@pytest.mark.parametrize("budget", [1, 64, 4096, enumeration._SERIAL_NODES])
def test_walk_does_not_depend_on_the_serial_budget(monkeypatch, budget):
    """At jobs=2 the search walks ``budget`` nodes in-process and hands the
    pairs left on its stack to workers; a budget of one node forks for any
    search past its root.  Node and orbit counts, leaves in order and the
    depth cap are those of jobs=1 (test_ledger_entry) for every budget.  At
    a budget of 64 nodes, test_search_entry_at_two_jobs of test_ledger
    checks each search of the ledger, so this test checks LEAVES and the cap
    alone.  jobs=1 reads no budget, so it is not run here."""
    monkeypatch.setattr(enumeration, "_SERIAL_NODES", budget)
    handed = _record_fan_out(monkeypatch)
    _assert_walk_pinned(2, [] if budget == 64 else WALK)
    # blocks of 4 pairs leave pairs pending on the lower levels too, and let
    # the walk reach leaves before a budget of 64 nodes stops it
    monkeypatch.setattr(enumeration, "_BLOCK", 4)
    _assert_pinned(LEAVES, 2)
    # davenport(7) outruns every budget
    assert max(units for jobs, units in handed) >= 2


def test_serial_walk_hands_no_unit_on(monkeypatch):
    """At jobs=1, with blocks of 4 pairs, LEAVES are pinned and fan_out is
    handed no unit."""
    handed = _record_fan_out(monkeypatch)
    monkeypatch.setattr(enumeration, "_BLOCK", 4)
    _assert_pinned(LEAVES, 1)
    assert {units for jobs, units in handed} == {0}


@pytest.mark.parametrize("budget", [1, 10**9])
def test_results_do_not_depend_on_the_chunk_budget(monkeypatch, budget):
    """A budget of one row makes every chunk one node, and a budget above
    any chunk these searches form takes all pending children of a depth
    into one chunk; the walk, its node and orbit counts and its leaves in
    order are those of the default budget, at jobs 1 and 2, and the depth
    cap still raises.  The default budget itself is test_ledger_entry's at
    jobs=1 and the serial-budget test's at jobs=2."""
    monkeypatch.setattr(enumeration, "_CHUNK_ROWS", budget)
    # 28,211 one-node chunks for davenport(7) would take seconds
    keys = [key for key in WALK if key != "davenport n=7" or budget > 1]
    for jobs in (1, 2):
        _assert_walk_pinned(jobs, keys)


# whole walks whose chunks read their parents' records: (n, length,
# predicate, params) for n = 3..7, the zero-sum free walk to its longest
# length, the minimal zero-sums of length 2n - 1 under the reach cut, no
# zero-sum of length <= n - 1 and no predicate at all
INHERITED_WALKS = [
    walk
    for n, free, short, every in [(3, 4, 5, 4), (4, 6, 6, 4), (5, 8, 7, 4), (6, 10, 7, 4),
                                  (7, 12, 6, 3)]
    for walk in [(n, free, "zero-sum-free", {}), (n, 2 * n - 1, "minimal-zero-sum", {}),
                 (n, short, "no-short-zero-sum", {"k": n - 1}), (n, every, "all", {})]
]


# blocks of 4 pairs and one-node chunks walk only the walks of at most
# this many nodes, all but n = 7's two longest
LIGHT_WALK = 10_000


def _checked_records(monkeypatch, seen):
    """Rerun every chunk that reads its parents' records with a fresh
    image for every row, and require the same first differences j (so the
    same bounds x = P[j]) and admitted candidates.  For each inherited
    row, with v = alpha(g') for the node's new term g' = P[k-1], v < x
    never occurs, nor v < g' on a row fixing the parent's P.  ``seen``
    counts each case."""
    test = _Engine._test_r_p

    def checked(self, terms, tested, counts, cands, up=None, inherited=None):
        before = cands.copy()
        first = test(self, terms, tested, counts, cands, up, inherited)
        if inherited is None:
            return first
        again = before.copy()
        assert np.array_equal(first, test(self, terms, tested, counts, again))
        assert np.array_equal(cands, again)
        k = terms.shape[1] - 1
        node, at = tested.nonzero()
        stab = self.stabilizer[terms[node, 0]]
        rows, starts = self._rows(self.start[terms[node, at]], stab)
        # the parent's segment through the same term, in its segment order
        parent = np.zeros_like(tested)
        parent[:, :k - 1] = inherited.tested[up]
        seg = inherited.start[up][node] + (parent.cumsum(axis=1)[node, at] - 1) * stab
        old = parent[node, at].repeat(stab)
        index = (np.arange(len(rows)) + (seg - starts).repeat(stab))[old]
        P = terms.repeat(counts, axis=0)[old]
        j = inherited.first[index].astype(int)
        g, v = P[:, k - 1], self.perm[rows[old], P[:, k - 1]]
        x = P[np.arange(len(P)), j]
        fixing = j == 0
        assert not (v < g)[fixing].any()
        assert not (v < x)[~fixing].any()
        seen["new segment"] += int((~old).sum())
        seen["fixing, v = g'"] += int((fixing & (v == g)).sum())
        seen["fixing, v > g'"] += int((fixing & (v > g)).sum())
        seen["v = x"] += int((~fixing & (v == x)).sum())
        seen["v > x"] += int((~fixing & (v > x)).sum())
        return first

    monkeypatch.setattr(_Engine, "_test_r_p", checked)


def _walk_everywhere(monkeypatch):
    """Keep records at every depth and read them in every chunk."""
    monkeypatch.setattr(enumeration, "_INHERIT_DEPTH", 2)
    monkeypatch.setattr(enumeration, "_INHERIT_ROWS", 1)


@pytest.fixture(scope="module")
def reference_walks():
    """The leaves and counts of INHERITED_WALKS with no records anywhere."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(enumeration, "_INHERIT_DEPTH", 10**9)
        return [enumeration.enumerate_leaves(EnumSpec(*walk)) for walk in INHERITED_WALKS]


@pytest.mark.parametrize("config", ["default", "block=4", "chunk=1", "jobs=2"])
def test_inherited_records_equal_fresh_images(monkeypatch, reference_walks, config):
    """Over whole walks at n = 3..7, every chunk that reads its parents'
    records gets the first differences and admitted candidates of fresh
    images (_checked_records), and each walk the leaves, in order, and
    counts of a walk with no records: with records read everywhere, and at
    the default thresholds; with blocks of 4 pairs and with one-node
    chunks (the walks of at most LIGHT_WALK nodes); and at jobs=2, forked
    past a 64-node serial budget."""
    seen, jobs = Counter(), 1
    _checked_records(monkeypatch, seen)
    if config == "block=4":
        monkeypatch.setattr(enumeration, "_BLOCK", 4)
    elif config == "chunk=1":
        monkeypatch.setattr(enumeration, "_CHUNK_ROWS", 1)
    elif config == "jobs=2":
        monkeypatch.setattr(enumeration, "_SERIAL_NODES", 64)
        jobs = 2
    for thresholds in ["everywhere"] + (["default"] if config == "default" else []):
        with monkeypatch.context() as m:
            if thresholds == "everywhere":
                _walk_everywhere(m)
            for walk, expected in zip(INHERITED_WALKS, reference_walks):
                if config in ("block=4", "chunk=1") and expected[1].nodes > LIGHT_WALK:
                    continue
                got = enumeration.enumerate_leaves(EnumSpec(*walk), jobs=jobs)
                assert got == expected, (config, thresholds, walk)
    if jobs == 1:
        assert set(seen) == {"new segment", "fixing, v = g'", "fixing, v > g'", "v = x", "v > x"}
        assert min(seen.values()) > 0, seen
        assert sum(seen.values()) > 1000, seen


def test_walk_working_set_is_bounded():
    """The tracemalloc peak of davenport(7), whose group tables are built
    beforehand, stays under 1.1 MB: 0.86 MB measured with 4096-row chunks
    (for the first search in the process; 0.70 MB for a second) plus a
    margin of about 30%, 0.66 MB (0.60 MB) since the counting rule reads
    Group.below_sets, 0.63 MB (0.58 MB) since _images sorts a span of
    row-tagged 16-bit keys at a time, and 0.78 MB (0.73 MB) since tested
    blocks keep their rows' first differences for their children, 0.20 MB
    of it on the stack at most.  numpy reports its buffers to
    tracemalloc, so a larger chunk budget, or a chunk array more per row,
    fails here before it shows in the benchmark's peak RSS (6144-row chunks
    read 1.2 MB)."""
    grp = group(7)
    grp.perm_table(), grp.orbit_tables(), grp.inverse_table(), grp.below_sets()
    tracemalloc.start()
    try:
        assert davenport(grp, jobs=1) == 13
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_100_000, peak


def _no_fork(*args, **kwargs):
    raise AssertionError("fan_out forked")


def test_fan_out_keeps_unit_order():
    units = list(range(7))
    offset = 3  # a closure, which the workers inherit rather than unpickle
    for jobs in (1, 2, 3):
        assert enumeration.fan_out(lambda u: u * u + offset, units, jobs) == [
            u * u + offset for u in units
        ]


def test_fan_out_forks_nothing_for_fewer_than_two_units(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
    assert enumeration.fan_out(str, [], 4) == []
    assert enumeration.fan_out(str, [5], 4) == ["5"]
    assert enumeration.fan_out(str, [5, 6], 1) == ["5", "6"]


def test_fan_out_forks_at_most_one_worker_per_unit(monkeypatch):
    get_context = multiprocessing.get_context
    sizes = []

    class Recorded:
        def __init__(self, method):
            self.context = get_context(method)

        def Pool(self, processes):
            sizes.append(processes)
            return self.context.Pool(processes)

    monkeypatch.setattr(multiprocessing, "get_context", Recorded)
    assert enumeration.fan_out(abs, [-1, -2, -3], 8) == [1, 2, 3]
    assert sizes == [3]


def test_tiny_searches_stay_in_process(monkeypatch):
    """A search that ends within the serial budget forks nothing at any
    jobs: the tiny ones, and the four searches of the cold cli-cache
    commands, each under 8,000 nodes."""
    monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
    _assert_pinned(["property-b n=3", "davenport n=2", "census n=5 length=7", "casen n=5 s=1",
                    "property-b n=6", "davenport n=6"], jobs=2)


@pytest.mark.parametrize(
    "name", ["all", "zero-sum-free", "minimal-zero-sum", "no-short-zero-sum", "zero-sum-no-short"]
)
def test_length_zero_and_one(name):
    grp = group(3)
    params = {"k": 2} if "short" in name else {}
    empty, _ = enumerate_sequences(EnumSpec(3, 0, name, params))
    # every predicate admits the empty sequence but minimal-zero-sum
    assert empty == ([] if name == "minimal-zero-sum" else [Sequence(grp, ())])
    single, stats = enumerate_sequences(EnumSpec(3, 1, name, params))
    zero, nonzero = (Sequence.from_terms(grp, [g]) for g in [(0, 0), (0, 1)])
    expected = {
        "all": [zero, nonzero],
        "zero-sum-free": [nonzero],
        "minimal-zero-sum": [zero],
        "no-short-zero-sum": [nonzero],
        "zero-sum-no-short": [],
    }[name]
    assert single == expected
    # a length-1 search counts the nodes it visits, and no root
    assert (stats.nodes, stats.leaves) == (len(expected), len(expected))


def test_unknown_predicate_rejected():
    with pytest.raises(SchemaError):
        enumerate_sequences(EnumSpec(3, 2, "nonsense"))
    with pytest.raises(SchemaError):
        enumerate_sequences(EnumSpec(3, 2, "no-short-zero-sum", {"bogus": 1}))
    with pytest.raises(SchemaError):
        enumerate_sequences(EnumSpec(3, 2, "no-short-zero-sum", {"k": 0}))


@pytest.mark.parametrize("n,expected", [(n, LEDGER[f"davenport n={n}"]["value"])
                                        for n in (2, 3, 4, 5)])
def test_davenport_small(n, expected):
    assert davenport(group(n)) == expected


@pytest.mark.parametrize("n,expected", [(n, LEDGER[f"s_leq n={n} k={n}"]["value"])
                                        for n in (2, 3, 4)])
def test_s_leq_small(n, expected):
    assert s_leq(group(n), n) == expected


def test_s_leq_unbounded_predicate_hits_cap():
    # a single generator repeated forever never has a zero-sum of length <= 2
    with pytest.raises(BudgetExceeded):
        max_length_with(group(4), "no-short-zero-sum", {"k": 2}, depth_cap=16)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_s_leq_below_n_is_a_precondition_violation(n):
    """For 1 <= k < n no length forces a zero-sum of length <= k, so s_leq
    refuses before it searches (test_s_leq_small runs k = n)."""
    for k in range(1, n):
        with pytest.raises(PreconditionViolated, match=f"k={k} < n={n}"):
            s_leq(group(n), k)


def test_max_length_with_reports_stats():
    longest, stats = max_length_with(group(3), "zero-sum-free")
    assert longest == 4
    assert stats.max_depth == 4
    assert stats.leaves == 0 and stats.nodes > 0


CACHED_SPECS = [
    EnumSpec(3, 4, name, params, up_to_symmetry)
    for name, params in [
        ("all", {}),
        ("zero-sum-free", {}),
        ("minimal-zero-sum", {}),
        ("no-short-zero-sum", {"k": 2}),
        ("zero-sum-no-short", {"k": 3}),
    ]
    for up_to_symmetry in (True, False)
]


def _no_search(*args, **kwargs):
    raise AssertionError("a cache hit must not search")


def test_cache_roundtrip(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "c"))
    fresh = [enumerate_sequences(spec) for spec in CACHED_SPECS]
    for spec in CACHED_SPECS:
        enumerate_sequences(spec, cache=cache)
        assert cache.load(spec.key()) is not None
    assert davenport(group(3), cache=cache) == 5
    assert s_leq(group(3), 3, cache=cache) == 7
    assert s_leq(group(3), 4, cache=cache) == 6
    monkeypatch.setattr(enumeration, "_search", _no_search)
    assert [enumerate_sequences(spec, cache=cache) for spec in CACHED_SPECS] == fresh
    assert davenport(group(3), cache=cache) == 5
    assert s_leq(group(3), 3, cache=cache) == 7
    assert cache.load({"op": "davenport", "n": 3})["value"] == 5
    assert cache.load({"op": "s_leq", "n": 3, "k": 4})["value"] == 6
    assert len(os.listdir(cache.directory)) == len(CACHED_SPECS) + 3


def _counting_search(monkeypatch) -> list:
    """Replace enumeration._search by a wrapper that records each call."""
    calls, search = [], enumeration._search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(enumeration, "_search", counted)
    return calls


def test_a_search_over_the_leaf_cap_is_not_stored(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "c"))
    spec = EnumSpec(3, 5, "minimal-zero-sum", up_to_symmetry=False)
    leaves, stats = enumeration.enumerate_leaves(spec)
    assert len(leaves) > 1
    monkeypatch.setattr(enumeration, "_CACHE_MAX_SEQUENCES", len(leaves) - 1)
    calls = _counting_search(monkeypatch)
    for searches in (1, 2):
        assert enumeration.enumerate_leaves(spec, cache=cache) == (leaves, stats)
        assert len(calls) == searches
        assert cache.load(spec.key()) is None
    assert os.listdir(cache.directory) == []


def test_a_search_at_the_leaf_cap_is_stored(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "c"))
    spec = EnumSpec(3, 5, "minimal-zero-sum", up_to_symmetry=False)
    leaves, stats = enumeration.enumerate_leaves(spec)
    monkeypatch.setattr(enumeration, "_CACHE_MAX_SEQUENCES", len(leaves))
    calls = _counting_search(monkeypatch)
    assert enumeration.enumerate_leaves(spec, cache=cache) == (leaves, stats)
    assert len(calls) == 1
    assert cache.load(spec.key()) is not None
    monkeypatch.setattr(enumeration, "_search", _no_search)
    hit, hit_stats = enumeration.enumerate_leaves(spec, cache=cache)
    assert hit == leaves and hit_stats == stats
    assert {type(leaf) for leaf in hit} == {type(leaf) for leaf in leaves} == {tuple}


def test_cache_entry_with_an_edited_value_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    key = {"op": "davenport", "n": 3}
    assert davenport(group(3), cache=cache) == 5
    path = cache._path(key)
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.count(b'"value": 5') == 1
    with open(path, "wb") as fh:
        fh.write(data.replace(b'"value": 5', b'"value": 4'))
    assert cache.load(key) is None
    assert davenport(group(3), cache=cache) == 5
    with open(path, "rb") as fh:
        assert fh.read() == data


def test_cache_entry_with_an_edited_leaf_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    spec = EnumSpec(3, 5, "minimal-zero-sum")
    fresh = enumerate_sequences(spec)
    enumerate_sequences(spec, cache=cache)
    # swap one leaf for (0,0)^5, keeping the digest line as it was
    path = cache._path(spec.key())
    with open(path, "rb") as fh:
        digest, _, body = fh.read().partition(b"\n")
    entry = json.loads(body)
    entry["leaves"][0] = [group(3).index((0, 0))] * 5
    with open(path, "wb") as fh:
        fh.write(digest + b"\n" + json.dumps(entry, sort_keys=True).encode())
    assert cache.load(spec.key()) is None
    assert enumerate_sequences(spec, cache=cache) == fresh


def test_cache_entry_with_a_flipped_byte_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    spec = EnumSpec(3, 5, "minimal-zero-sum")
    enumerate_sequences(spec, cache=cache)
    path = cache._path(spec.key())
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    # a digit of the first leaf; the body stays valid JSON
    at = data.index(b'"leaves": [[') + len(b'"leaves": [[')
    data[at] ^= 1
    with open(path, "wb") as fh:
        fh.write(data)
    json.loads(data.partition(b"\n")[2])
    assert cache.load(spec.key()) is None
    # and a purge leaves nothing behind
    removed = cache.purge()
    assert removed >= 1
    assert cache.load(spec.key()) is None


@pytest.mark.parametrize("body", [b"[1, 2]", b"null"])
def test_cache_entry_that_is_not_an_object_is_a_miss(tmp_path, body):
    cache = ResultCache(str(tmp_path / "c"))
    key = {"op": "davenport", "n": 3}
    assert davenport(group(3), cache=cache) == 5
    path = cache._path(key)
    with open(path, "rb") as fh:
        data = fh.read()
    # a well-formed digest line over a body that is JSON but not an entry
    with open(path, "wb") as fh:
        fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
    assert cache.load(key) is None
    assert davenport(group(3), cache=cache) == 5
    with open(path, "rb") as fh:
        assert fh.read() == data


def test_concurrent_stores_of_one_key_do_not_collide(tmp_path, monkeypatch):
    """A store by another process of the same key, landing between this
    store's write and its rename, leaves this store's tmp file alone."""
    cache = ResultCache(str(tmp_path / "c"))
    key = {"op": "davenport", "n": 3}
    replace, pid = os.replace, os.getpid()

    def interleaved(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        with monkeypatch.context() as other:
            other.setattr(os, "getpid", lambda: pid + 1)
            cache.store(key, {"value": 5})
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interleaved)
    cache.store(key, {"value": 5})
    assert cache.load(key)["value"] == 5
    assert os.listdir(cache.directory) == [os.path.basename(cache._path(key))]


def test_purge_removes_the_tmp_files_of_killed_stores(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    davenport(group(3), cache=cache)
    path = cache._path({"op": "davenport", "n": 3})
    with open(f"{path}.4242.tmp", "wb") as fh:
        fh.write(b"half an entry")
    assert cache.purge() == 2
    assert os.listdir(cache.directory) == []


def test_purge_leaves_files_it_did_not_write(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    davenport(group(3), cache=cache)
    entry = os.path.basename(cache._path({"op": "davenport", "n": 3}))
    own = [f"{entry}.4242.tmp", ".probe-4242"]
    foreign = ["notes.json", "draft.tmp", "0123.json", f"{entry}.bak", ".probe-x",
               f"{entry}.x.tmp"]
    for name in own + foreign:
        with open(os.path.join(cache.directory, name), "wb") as fh:
            fh.write(b"{}")
    assert cache.purge() == 1 + len(own)
    assert sorted(os.listdir(cache.directory)) == sorted(foreign)


def test_cache_entry_stands_alone(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "c"))
    spec = EnumSpec(3, 5, "minimal-zero-sum")
    fresh = enumerate_sequences(spec, cache=cache)
    davenport(group(3), cache=cache)
    entry = os.path.basename(cache._path(spec.key()))
    others = [name for name in os.listdir(cache.directory) if name != entry]
    assert others
    for name in others:
        os.remove(os.path.join(cache.directory, name))
    assert cache.load(spec.key()) is not None
    monkeypatch.setattr(enumeration, "_search", _no_search)
    assert enumerate_sequences(spec, cache=cache) == fresh


def test_cache_schema_follows_the_search_source():
    h = hashlib.sha256()
    for name in ("enumeration.py", "subsums.py", "groups.py", "sequences.py"):
        with open(os.path.join(os.path.dirname(enumeration.__file__), name), "rb") as fh:
            h.update(fh.read())
    assert enumeration.CACHE_SCHEMA.endswith(h.hexdigest()[:16])
    assert enumeration.CACHE_SCHEMA.startswith(zerosum.__version__)


def test_cache_entry_of_an_older_schema_is_a_miss(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "c"))
    spec = EnumSpec(3, 5, "minimal-zero-sum")
    # an entry written by another version or another search source
    monkeypatch.setattr(enumeration, "CACHE_SCHEMA", f"{zerosum.__version__}/1")
    enumerate_sequences(spec, cache=cache)
    assert cache.load(spec.key()) is not None
    monkeypatch.undo()
    assert cache.load(spec.key()) is None


def test_resolve_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ZS_CACHE", str(tmp_path / "envdir"))
    cache = resolve_cache()
    assert cache is not None and cache.directory == str(tmp_path / "envdir")
    assert resolve_cache("explicit").directory == "explicit"
    assert resolve_cache(enabled=False) is None
    monkeypatch.delenv("ZS_CACHE")
    assert resolve_cache().directory == ".zs-cache"
