from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import random
import tracemalloc

import pytest

import zerosum
from zerosum import enumeration, group, is_minimal_zero_sum, is_zero_sum_free, restricted_sums
from zerosum.classification import verify_casen
from zerosum.enumeration import (
    EnumSpec,
    ResultCache,
    _Engine,
    _compile_predicate,
    _reach_table,
    davenport,
    enumerate_sequences,
    max_length_with,
    resolve_cache,
    s_leq,
)
from zerosum.errors import BudgetExceeded, SchemaError
from zerosum.properties import verify_property_b, verify_property_c
from zerosum.sequences import Sequence

from oracles import (
    naive_canonical,
    naive_is_minimal_zero_sum,
    naive_is_zero_sum_free,
    naive_restricted_sums,
    random_sequence,
)

# Exact search sizes, pinned so that a change to the orbit test or the
# predicates cannot alter the walk unnoticed: nodes of the zero-sum-free
# forest behind davenport(n), and (orbits, nodes) of the property B/C scans.
DAVENPORT_NODES = {2: 2, 3: 7, 4: 68, 5: 308, 6: 7984, 7: 28211}
PROPERTY_B = {2: (1, 3), 3: (1, 7), 4: (2, 62), 5: (5, 267), 6: (13, 6586)}
PROPERTY_C = {2: (1, 3), 3: (1, 11), 4: (1, 115), 5: (2, 632)}


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


def _admit(engine, batch):
    """The batched sibling test on one chunk: the admitted candidates of
    each (P, candidates) of ``batch``, all P of one length."""
    chunk = enumeration._Chunk(len(batch[0][0]))
    for i, (P, cands) in enumerate(batch):
        # the test reads no guard state; its slot carries the node's place
        # in the batch
        node = engine._node(tuple(P))
        engine._join(chunk, (node[0], i) + node[2:], sum(1 << g for g in cands))
    admitted = [[] for _ in batch]
    for (_, i, *_), mask in zip(chunk.nodes, engine._admitted(chunk)):
        admitted[i] = [g for g in batch[i][1] if mask >> g & 1]
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


def _rescanned_segments(engine, P, mask):
    """The segments of R_P after the multiplicity cut, read off P by
    counting each distinct term (none when no candidate is left): the
    reference for the counts a node carries."""
    t0, copies, segments = P[0], P.count(P[0]), []
    if not mask:
        return segments
    for e in dict.fromkeys(P):
        if engine.orbit_min[e] == t0:
            short = copies - P.count(e)
            if short == 0 or (short == 1 and e == P[-1] and mask >> e & 1):
                segments.append(engine.rows_to[t0][e])
    return segments


def test_carried_counts_match_a_rescan():
    """Every prefix of random canonical P at n = 3..8, built a term at a
    time from its parent's counts, joins a chunk with the segments a rescan
    of its terms gives, with P[-1] a candidate and without.  The prefixes
    take in a last term repeated away from t0, terms of t0's orbit as
    frequent as t0, and the P[-1] one copy short of t0."""
    seen = set()
    for n in range(3, 9):
        grp = group(n)
        engine = _Engine(grp, "all", {}, None, True)
        rng = random.Random(1100 + n)
        for _ in range(60):
            P = _canonical_prefix(rng, grp, rng.randrange(1, 10))
            node = engine._node(())
            for k, g in enumerate(P, 1):
                node = engine._child(node, g)
                T = node[0]
                assert T == tuple(P[:k])
                t0, last = T[0], T[-1]
                if k > 1 and last == T[-2] != t0:
                    seen.add("repeated last term")
                if len(node[5]) > 1:
                    seen.add("heavy orbit term")
                if engine.orbit_min[last] == t0 and T.count(last) == T.count(t0) - 1:
                    seen.add("one copy short")
                for mask in (engine.above[last], engine.above[last] & ~(1 << last)):
                    chunk = enumeration._Chunk(k)
                    engine._join(chunk, node, mask)
                    expected = _rescanned_segments(engine, T, mask & engine.not_below[t0])
                    assert chunk.segments == expected, (n, T, mask >> last & 1)
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
            assert reach[g][j] == sum(1 << s for s in sums), (g, j)


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
    assert len(raw) == sum(s.orbit_size() for s in canon)


def test_results_are_lex_sorted_and_deterministic_across_jobs():
    spec = EnumSpec(5, 9, "minimal-zero-sum")
    one, stats_one = enumerate_sequences(spec, jobs=1)
    two, stats_two = enumerate_sequences(spec, jobs=3)
    assert one == two
    assert stats_one == stats_two
    keys = [s.terms() for s in one]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n,nodes", sorted(DAVENPORT_NODES.items()))
def test_davenport_node_counts_are_pinned_for_any_jobs(n, nodes):
    runs = [
        max_length_with(group(n), "zero-sum-free", jobs=jobs, depth_cap=n * n + 1)
        for jobs in (1, 2)
    ]
    assert runs[0] == runs[1]
    longest, stats = runs[0]
    assert (longest + 1, stats.nodes) == (2 * n - 1, nodes)


@pytest.mark.parametrize(
    "verify,n,orbits,details",
    [(verify_property_b, n, o, {"nodes": d}) for n, (o, d) in PROPERTY_B.items()]
    + [
        (verify_property_c, n, o, {"nodes": d, "without_basis_form": 0})
        for n, (o, d) in PROPERTY_C.items()
    ]
    + [
        (verify_casen, 5, 45,
         {"nodes": 4109, "kinds": {"item1": 44, "item2": 1, "both": 0, "unclassified": 0}}),
    ],
)
def test_report_counts_are_pinned_for_any_jobs(verify, n, orbits, details):
    one, two = (verify(n, jobs=jobs) for jobs in (1, 2))
    assert one.to_json(timing=False) == two.to_json(timing=False)
    assert one.passed and one.orbits_scanned == orbits
    assert one.details == details


@pytest.mark.parametrize("split", [1, 2, 3, 4])
def test_node_counts_do_not_depend_on_the_split_depth(monkeypatch, split):
    """The fan-out cuts the one walk at the split depth, so every pinned
    count holds for any split depth, with and without worker processes.
    2 ** (split - 1) units per job makes some of these searches split at
    depth ``split``."""
    monkeypatch.setattr(enumeration, "_UNITS_PER_JOB", 2 ** (split - 1))
    depths = set()
    fan_out = enumeration.fan_out

    def recorded(work, units, jobs):
        depths.update(len(unit) for unit in units[:1])
        return fan_out(work, units, jobs)

    monkeypatch.setattr(enumeration, "fan_out", recorded)
    for jobs in (1, 2):
        for n, (orbits, nodes) in PROPERTY_B.items():
            if n >= 3:
                report = verify_property_b(n, jobs=jobs)
                assert (report.orbits_scanned, report.details["nodes"]) == (orbits, nodes)
        for n, (orbits, nodes) in PROPERTY_C.items():
            report = verify_property_c(n, jobs=jobs)
            assert (report.orbits_scanned, report.details["nodes"]) == (orbits, nodes)
        for n, nodes in [(5, 4109), (4, 622)]:
            assert verify_casen(n, jobs=jobs).details["nodes"] == nodes
        for n, nodes in DAVENPORT_NODES.items():
            _, stats = max_length_with(group(n), "zero-sum-free", jobs=jobs)
            assert stats.nodes == nodes, (split, jobs, n)
    assert split in depths


# leaves of a few searches as (count, nodes, sha256 of their JSON list),
# so that leaf order is pinned as well as the counts
PINNED_LEAVES = [
    (EnumSpec(5, 9, "minimal-zero-sum"), 5, 267, "da2d5ff4b09d6349"),
    (EnumSpec(4, 6, "zero-sum-free"), 6, 68, "0c9046c5b5a9a01b"),
    (EnumSpec(3, 6, "all"), 103, 197, "a7e0bbde67ab0808"),
    (EnumSpec(4, 7, "zero-sum-no-short", {"k": 3}), 2, 114, "da0fe9b8ccf01ce2"),
    (EnumSpec(3, 5, "no-short-zero-sum", {"k": 2}, up_to_symmetry=False), 360, 680,
     "439820a0ac9ee4ae"),
]


@pytest.mark.parametrize("budget", [1, enumeration._CHUNK_ROWS, 10**9])
def test_results_do_not_depend_on_the_chunk_budget(monkeypatch, budget):
    """A budget of one row makes every chunk one node, and a budget above
    any chunk these searches form takes all pending children of a depth
    into one chunk; the walk, its node and orbit counts and its leaves in
    order are those of the default budget, at jobs 1 and 2, and the depth
    cap still raises."""
    monkeypatch.setattr(enumeration, "_CHUNK_ROWS", budget)
    for jobs in (1, 2):
        for n, nodes in DAVENPORT_NODES.items():
            if n < 7 or budget > 1:  # 28,211 one-node chunks would take seconds
                _, stats = max_length_with(group(n), "zero-sum-free", jobs=jobs)
                assert stats.nodes == nodes, (budget, jobs, n)
        for n, (orbits, nodes) in PROPERTY_B.items():
            report = verify_property_b(n, jobs=jobs)
            assert (report.orbits_scanned, report.details["nodes"]) == (orbits, nodes)
        for n, (orbits, nodes) in PROPERTY_C.items():
            report = verify_property_c(n, jobs=jobs)
            assert (report.orbits_scanned, report.details["nodes"]) == (orbits, nodes)
        for n, orbits, nodes in [(4, 11, 622), (5, 45, 4109)]:
            report = verify_casen(n, jobs=jobs)
            assert (report.orbits_scanned, report.details["nodes"]) == (orbits, nodes)
        for spec, count, nodes, digest in PINNED_LEAVES:
            leaves, stats = enumeration.enumerate_leaves(spec, jobs=jobs)
            assert (len(leaves), stats.nodes) == (count, nodes), spec
            assert hashlib.sha256(json.dumps(leaves).encode()).hexdigest()[:16] == digest
        with pytest.raises(BudgetExceeded):
            s_leq(group(4), 2, jobs=jobs)


def test_walk_working_set_is_bounded():
    """The tracemalloc peak of davenport(7), whose group tables are built
    beforehand, stays under 1.1 MB: 0.86 MB measured with 4096-row chunks
    (for the first search in the process; 0.70 MB for a second) plus a
    margin of about 30%.  numpy reports its buffers to tracemalloc, so a
    larger chunk budget, or a chunk array more per row, fails here before
    it shows in the benchmark's peak RSS (6144-row chunks read 1.2 MB)."""
    grp = group(7)
    grp.perm_table(), grp.orbit_tables(), grp.inverse_rows()
    tracemalloc.start()
    try:
        assert davenport(grp, jobs=1) == 13
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_100_000, peak


def test_casen_6_1_is_pinned():
    """The first frontier step past the default casen bound."""
    report = verify_casen(6, jobs=1, force=True)
    assert report.passed and report.orbits_scanned == 183
    assert report.details == {
        "nodes": 88331, "kinds": {"item1": 183, "item2": 0, "both": 0, "unclassified": 0},
    }


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
    pinned = verify_property_b(3, jobs=1).to_json(timing=False)
    monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
    report = verify_property_b(3, jobs=2)
    assert report.to_json(timing=False) == pinned
    assert (report.orbits_scanned, report.details["nodes"]) == PROPERTY_B[3]
    longest, stats = max_length_with(group(2), "zero-sum-free", jobs=2)
    assert (longest + 1, stats.nodes) == (3, DAVENPORT_NODES[2])


def test_property_b_at_7_is_pinned_for_any_jobs():
    one, two = (verify_property_b(7, bound=7, jobs=jobs) for jobs in (1, 2))
    assert one.to_json(timing=False) == two.to_json(timing=False)
    assert one.passed and one.orbits_scanned == 35
    assert one.details == {"nodes": 22385}


@pytest.mark.parametrize(
    "name", ["all", "zero-sum-free", "minimal-zero-sum", "no-short-zero-sum", "zero-sum-no-short"]
)
def test_length_zero_and_one(name):
    grp = group(3)
    params = {"k": 2} if "short" in name else {}
    empty, _ = enumerate_sequences(EnumSpec(3, 0, name, params))
    # every predicate admits the empty sequence but minimal-zero-sum
    assert empty == ([] if name == "minimal-zero-sum" else [Sequence.empty(grp)])
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


@pytest.mark.parametrize("n,expected", [(2, 3), (3, 5), (4, 7), (5, 9)])
def test_davenport_small(n, expected):
    assert davenport(group(n)) == expected


@pytest.mark.parametrize("n,expected", [(2, 4), (3, 7), (4, 10)])
def test_s_leq_small(n, expected):
    assert s_leq(group(n), n) == expected


def test_davenport_bound_is_enforced():
    with pytest.raises(BudgetExceeded):
        davenport(group(8))


def test_s_leq_unbounded_predicate_hits_cap():
    # a single generator repeated forever never has a zero-sum of length <= 2
    with pytest.raises(BudgetExceeded):
        s_leq(group(4), 2)


def test_s_leq_bound_is_enforced():
    with pytest.raises(BudgetExceeded):
        s_leq(group(6), 6)


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
