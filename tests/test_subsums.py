from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    Sequence,
    find_zero_sum_subsequence,
    group,
    has_short_zero_sum,
    is_minimal_zero_sum,
    is_zero_sum_free,
    restricted_sums,
    subsequence_sums,
)
from zerosum import subsums
from zerosum.errors import InvalidRange, WitnessCheckFailed

from oracles import (
    layer_step,
    layer_translate,
    naive_is_minimal_zero_sum,
    naive_is_zero_sum_free,
    naive_restricted_sums,
    pack_layers,
    random_sequence,
    unpack_layers,
)


def seq(n, *terms):
    return Sequence.from_terms(group(n), terms)


def test_sums_of_repeated_generator():
    s = Sequence(group(5), [((0, 1), 4)])
    assert subsequence_sums(s) == {(0, 1), (0, 2), (0, 3), (0, 4)}
    assert is_zero_sum_free(s)


def test_restricted_sums_small_hand_case():
    s = seq(3, (1, 0), (1, 0), (0, 1))
    assert restricted_sums(s, 1, 1) == {(1, 0), (0, 1)}
    assert restricted_sums(s, 2, 2) == {(2, 0), (1, 1)}
    assert restricted_sums(s, 1, 3) == {(1, 0), (0, 1), (2, 0), (1, 1), (2, 1)}
    assert restricted_sums(s, 0, 0) == {(0, 0)}
    s = seq(5, (0, 1), (0, 1), (1, 0), (1, 3))
    assert (0, 2) in restricted_sums(s, 2, 2)
    assert (1, 4) in restricted_sums(s, 2, 2)
    assert (0, 2) not in restricted_sums(s, 1, 1)
    assert (4, 4) not in restricted_sums(s, 1, 1)


def test_restricted_sums_range_validation():
    s = seq(3, (1, 0), (0, 1))
    for lmin, lmax in [(-1, 1), (2, 1), (0, 3), (1, 5)]:
        with pytest.raises(InvalidRange):
            restricted_sums(s, lmin, lmax)


def test_empty_sequence_conventions():
    e = Sequence(group(4), ())
    assert subsequence_sums(e) == frozenset()
    assert is_zero_sum_free(e)
    assert not is_minimal_zero_sum(e)


def test_zero_term_sequences():
    assert is_minimal_zero_sum(seq(4, (0, 0)))
    assert not is_minimal_zero_sum(seq(4, (0, 0), (0, 0)))
    assert not is_zero_sum_free(seq(4, (0, 0)))


def test_minimal_zero_sum_examples():
    assert is_minimal_zero_sum(seq(3, (1, 0), (1, 0), (1, 0)))
    assert not is_minimal_zero_sum(seq(3, (1, 0), (1, 0)))
    # zero-sum but splits into two zero-sum halves
    assert not is_minimal_zero_sum(
        seq(3, (1, 0), (1, 0), (1, 0), (0, 1), (0, 1), (0, 1))
    )
    # the n = 2 extremal example: all three involutions once
    assert is_minimal_zero_sum(seq(2, (0, 1), (1, 0), (1, 1)))


def test_minimality_equivalent_to_single_removals_zero_sum_free():
    rng = random.Random(5)
    grp = group(4)
    for _ in range(60):
        s = random_sequence(rng, grp, rng.randrange(1, 8))
        if not s.is_zero_sum():
            continue
        via_removals = all(
            is_zero_sum_free(s.remove(Sequence(grp, [(g, 1)])))
            for g in s.support()
        )
        assert is_minimal_zero_sum(s) == via_removals


def test_corrupted_witness_is_rejected(monkeypatch):
    s = seq(5, (0, 1), (0, 1), (1, 0), (1, 3))

    def corrupted(grp, terms, lmax):
        # every sum reachable from every prefix, in every layer: the walk
        # back picks no term
        packed = (1 << (lmax + 1) * grp.size) - 1
        return [packed for _ in range(len(terms) + 1)]

    monkeypatch.setattr(subsums, "forward_layers", corrupted)
    with pytest.raises(WitnessCheckFailed):
        find_zero_sum_subsequence(s, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_translate_matches_add_table(n):
    grp = group(n)
    add = grp.add_index_table()
    shifts = subsums.translations(n)
    rng = random.Random(n)
    sets = [[i] for i in range(grp.size)]
    sets += [rng.sample(range(grp.size), rng.randrange(grp.size + 1)) for _ in range(50)]
    for members in sets:
        layer = sum(1 << i for i in members)
        for t in range(grp.size):
            expected = sum(1 << add[i][t] for i in members)
            assert subsums.translate(layer, shifts[t]) == expected, (members, t)


@pytest.mark.parametrize("n", range(2, 11))
def test_packed_translate_equals_per_layer(monkeypatch, n):
    """``translate`` of a packed int of 1..2n layers moves each layer as the
    per-layer reference does, with masks of exactly that many layers and
    with the longer masks of a table grown past it; n = 9 and 10 have
    layers past 64 bits."""
    monkeypatch.setattr(subsums, "_TABLES", {})
    size = n * n
    rng = random.Random(900 + n)
    for count in range(1, 2 * n + 1):
        layers = [rng.getrandbits(size) for _ in range(count)]
        layers[rng.randrange(count)] = 0
        packed = pack_layers(layers, size)
        exact = subsums.translations(n, count)
        assert subsums._TABLES[n][0] == count
        for t in range(size):
            expected = pack_layers([layer_translate(x, n, t) for x in layers], size)
            assert subsums.translate(packed, exact[t]) == expected, (count, t)
    longest = subsums.translations(n, 2 * n)
    for count in (1, n, 2 * n - 1):
        layers = [rng.getrandbits(size) for _ in range(count)]
        packed = pack_layers(layers, size)
        for t in range(size):
            expected = pack_layers([layer_translate(x, n, t) for x in layers], size)
            assert subsums.translate(packed, longest[t]) == expected, (count, t)
    assert subsums.translations(n) is longest  # one table per n, never shrunk
    # the n^2 shift tuples share 4n masks (0 is one object), not 4 each
    masks = {id(shift[i]) for shift in longest for i in (0, 1, 4, 5)}
    assert len(masks) <= 4 * n


def test_find_zero_sum_subsequence():
    s = seq(3, (1, 0), (2, 0), (1, 1), (2, 2), (0, 1))
    t = find_zero_sum_subsequence(s, 2)
    assert t is not None and len(t) == 2 and t.sigma() == (0, 0)
    assert t.is_subsequence_of(s)
    assert find_zero_sum_subsequence(s, 1) is None
    assert find_zero_sum_subsequence(seq(3, (1, 0), (1, 0)), 2) is None
    with pytest.raises(InvalidRange):
        find_zero_sum_subsequence(s, 0)
    with pytest.raises(InvalidRange):
        find_zero_sum_subsequence(s, 6)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dp_matches_powerset_oracle(n):
    rng = random.Random(40 + n)
    grp = group(n)
    for _ in range(25):
        s = random_sequence(rng, grp, rng.randrange(0, 9))
        length = len(s)
        for lmin in range(0, length + 1):
            for lmax in range(lmin, length + 1):
                assert restricted_sums(s, lmin, lmax) == naive_restricted_sums(
                    s, lmin, lmax
                ), (s, lmin, lmax)
        assert is_zero_sum_free(s) == naive_is_zero_sum_free(s)
        assert is_minimal_zero_sum(s) == naive_is_minimal_zero_sum(s)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_has_short_zero_sum_matches_oracles(n):
    rng = random.Random(90 + n)
    grp = group(n)
    for _ in range(25):
        s = random_sequence(rng, grp, rng.randrange(0, 9))
        for k in range(len(s) + 1):
            expected = (0, 0) in naive_restricted_sums(s, 1, k)
            assert has_short_zero_sum(s, k) == expected, (s, k)
        assert has_short_zero_sum(s, None) == (not naive_is_zero_sum_free(s))


def _regime(c, k):
    return "c < k" if c < k else "c = k" if c == k else "c > k"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_has_short_zero_sum_with_heavy_multiplicities(n):
    """A term's copies are appended one at a time, at most k of them (n
    with no bound).  The cases put c below k, at k and above it, and close
    a zero-sum inside one element's copies (j*t = 0 at j = ord(t)), alone
    and behind other terms."""
    rng = random.Random(130 + n)
    grp = group(n)
    cases = [
        Sequence(grp, [(g, grp.element_order(g) + extra)])
        for g in grp.elements() if g != grp.zero for extra in (0, 1)
    ]
    for _ in range(12):
        support = rng.sample(grp.elements(), rng.randrange(1, 4))
        cases.append(Sequence(grp, [(g, rng.randrange(1, 2 * n + 1)) for g in support]))
    for c in range(1, n + 2):
        g, h = rng.sample(grp.elements(), 2)
        cases.append(Sequence(grp, [(g, c), (h, rng.randrange(1, 3))]))
        # h = -(c + 1)g would close a zero-sum with one copy of g too many
        for g in [x for x in grp.elements() if grp.element_order(x) > c + 1][:4]:
            cases.append(Sequence(grp, [(g, c), (grp.scale(-(c + 1), g), 1)]))
    regimes = set()
    for s in cases:
        for k in [*range(len(s) + 2), None]:
            if k is None:
                expected = not naive_is_zero_sum_free(s)
            else:
                expected = (0, 0) in naive_restricted_sums(s, 1, min(k, len(s)))
                regimes.update(_regime(c, k) for _, c in s.items())
            assert has_short_zero_sum(s, k) == expected, (s, k)
    assert regimes == {"c < k", "c = k", "c > k"}
    # j*t = 0 inside the copies of g, after a term that closes nothing
    for g in grp.elements():
        d = grp.element_order(g)
        if d < 2:
            continue
        h = (0, 1) if g != (0, 1) else (1, 0)
        for s in [Sequence(grp, [(g, d)]), Sequence(grp, [(h, 1), (g, d)])]:
            assert has_short_zero_sum(s, d)
            assert has_short_zero_sum(s, d - 1) == (
                (0, 0) in naive_restricted_sums(s, 1, d - 1)), (s, d)


def test_has_short_zero_sum_rejects_negative_k():
    s = seq(3, (1, 0), (2, 0))
    with pytest.raises(InvalidRange):
        has_short_zero_sum(s, -1)
    assert not has_short_zero_sum(s, 0)


def _reachable_states(guard, grp, rng):
    """The fresh state and states reached from it by one-copy appends."""
    states = [guard.fresh()]
    for length in (1, 3, 6):
        state = guard.fresh()
        for _ in range(length):
            state = guard.extend(state, rng.randrange(grp.size))
        states.append(state)
    return states


@pytest.mark.parametrize("n", range(2, 7))
def test_counted_guard_equals_copy_by_copy(n):
    """One copy's extend, the update that every counted term takes once per
    copy, is the per-layer reference step by -t on the k packed layers (one
    translate with no bound), for every k and t, on reachable states."""
    grp = group(n)
    rng = random.Random(300 + n)
    size, neg = grp.size, grp.neg_index_table()
    for k in [None, *range(2 * n)]:
        guard = subsums.ZeroSumGuard(grp, k)
        for state in _reachable_states(guard, grp, rng):
            for t in range(grp.size):
                if k is None:
                    one = state | layer_translate(state, n, neg[t])
                else:
                    layers = unpack_layers(state, size, k)
                    one = pack_layers(layer_step(layers, n, neg[t], k - 1), size)
                assert guard.extend(state, t) == one, (k, state, t)


def _words(guard, state):
    """An int state of ZeroSumGuard as the words of extend_rows: its layers
    unpacked, word a of a layer holding its bits a*n, ..., a*n + n - 1."""
    n = guard.n
    layers = unpack_layers(state, n * n, 1 if guard.k is None else guard.k)
    return np.array([[layer >> a * n & (1 << n) - 1 for a in range(n)] for layer in layers],
                    np.min_scalar_type((1 << n) - 1)).reshape(len(layers), n)


def _bool_row(layer, size):
    return np.array([layer >> i & 1 for i in range(size)], bool)


@pytest.mark.parametrize("n", range(2, 11))
def test_batched_guard_update_equals_extend(n):
    """extend_rows appends to each state of a batch what extend appends to
    it, and blocked_rows reads off what blocked does, for every k and term
    t, on reachable states; n = 9 and 10 have layers past 64 bits."""
    grp = group(n)
    rng = random.Random(500 + n)
    terms = np.arange(grp.size)
    for k in [None, *range(2 * n)]:
        guard = subsums.ZeroSumGuard(grp, k)
        assert (guard.fresh_rows(2) == _words(guard, guard.fresh())).all()
        for state in _reachable_states(guard, grp, rng):
            rows = np.repeat(_words(guard, state)[None], grp.size, axis=0)
            extended = guard.extend_rows(rows, terms)
            after_blocked = guard.blocked_rows(extended)
            for t in range(grp.size):
                after = guard.extend(state, t)
                assert (extended[t] == _words(guard, after)).all(), (k, state, t)
                assert (after_blocked[t] == _bool_row(guard.blocked(after), grp.size)).all()
            blocked = guard.blocked_rows(rows)
            assert (blocked == _bool_row(guard.blocked(state), grp.size)).all(), (k, state)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_witness_found_whenever_oracle_says_so(n):
    rng = random.Random(74 + n)
    grp = group(n)
    for _ in range(40):
        s = random_sequence(rng, grp, rng.randrange(1, 8))
        for length in range(1, len(s) + 1):
            exists = (0, 0) in naive_restricted_sums(s, length, length)
            got = find_zero_sum_subsequence(s, length)
            assert (got is not None) == exists
            if got is not None:
                assert len(got) == length and got.sigma() == (0, 0)
                assert got.is_subsequence_of(s)


@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=7),
)
@settings(max_examples=80, deadline=None)
def test_zero_sum_freeness_is_hereditary(n, terms):
    grp = group(n)
    s = Sequence.from_terms(grp, terms)
    if is_zero_sum_free(s):
        for g in s.support():
            assert is_zero_sum_free(s.remove(Sequence(grp, [(g, 1)])))
    else:
        assert not is_zero_sum_free(Sequence(grp, s.items() * 2))
