from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import Sequence, group
from zerosum.errors import NotASubsequence, SchemaError

from oracles import naive_canonical, naive_orbit, orbit_size, random_sequence


def seq(n, *terms):
    return Sequence.from_terms(group(n), terms)


def test_construction_merges_and_sorts():
    s = Sequence(group(5), [((1, 0), 2), ((0, 1), 1), ((1, 0), 1), ((6, -5), 1)])
    assert s.items() == (((0, 1), 1), ((1, 0), 4))
    assert len(s) == 5
    assert s.support() == ((0, 1), (1, 0))
    assert s.multiplicity((1, 0)) == 4
    assert s.multiplicity((6, -5)) == 4
    assert s.multiplicity((2, 2)) == 0


def test_zero_multiplicity_dropped_and_negative_rejected():
    s = Sequence(group(3), [((1, 1), 0)])
    assert len(s) == 0 and s.items() == ()
    with pytest.raises(ValueError):
        Sequence(group(3), [((1, 1), -1)])


def test_sigma_and_zero_sum():
    s = seq(3, (1, 0), (1, 0), (1, 0))
    assert s.sigma() == (0, 0) and s.is_zero_sum()
    assert seq(3, (1, 2)).sigma() == (1, 2)
    assert Sequence(group(3), ()).is_zero_sum()


def test_concat_remove_roundtrip():
    a = seq(4, (1, 0), (1, 0), (2, 3))
    b = seq(4, (1, 0), (0, 1))
    c = Sequence(group(4), a.items() + b.items())
    assert len(c) == 5 and c.multiplicity((1, 0)) == 3
    assert c.remove(b) == a
    assert c.remove(a) == b
    with pytest.raises(NotASubsequence):
        a.remove(seq(4, (1, 0), (1, 0), (1, 0)))
    with pytest.raises(NotASubsequence):
        a.remove(seq(4, (3, 3)))


def test_subsequence_relation():
    a = seq(4, (1, 0), (1, 0), (2, 3))
    assert seq(4, (1, 0)).is_subsequence_of(a)
    assert Sequence(group(4), ()).is_subsequence_of(a)
    assert not seq(4, (2, 3), (2, 3)).is_subsequence_of(a)
    assert not seq(5, (1, 0)).is_subsequence_of(a)


def test_repeated_and_iteration():
    s = Sequence(group(5), [((2, 1), 3)])
    assert list(s) == [(2, 1)] * 3
    assert tuple(s) == ((2, 1),) * 3


def test_apply_hom():
    s = seq(6, (1, 0), (2, 3), (2, 3))
    doubled = s.apply_hom(lambda g: ((2 * g[0]) % 6, (2 * g[1]) % 6))
    assert doubled == seq(6, (2, 0), (4, 0), (4, 0))


def test_json_roundtrip():
    s = seq(5, (0, 1), (0, 1), (1, 0), (1, 1))
    obj = s.to_json_obj()
    assert obj == {"n": 5, "terms": [[0, 1, 2], [1, 0, 1], [1, 1, 1]]}
    assert Sequence.from_json_obj(json.loads(json.dumps(obj))) == s


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"n": 5},
        {"n": 5, "terms": [[0, 1, 1]], "extra": 1},
        {"n": 1, "terms": []},
        {"n": "5", "terms": []},
        {"n": 5, "terms": [[0, 1]]},
        {"n": 5, "terms": [[0, 1, 0]]},
        {"n": 5, "terms": [[0, 5, 1]]},
        {"n": 5, "terms": [[0, -1, 1]]},
        {"n": 5, "terms": [[1, 0, 1], [0, 1, 1]]},  # unsorted
        {"n": 5, "terms": [[0, 1, 1], [0, 1, 2]]},  # duplicate element
        {"n": 5, "terms": [[0, 1, True]]},
    ],
)
def test_json_schema_rejections(obj):
    with pytest.raises(SchemaError):
        Sequence.from_json_obj(obj)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_canonicalize_matches_brute_force_and_is_orbit_constant(n):
    rng = random.Random(100 + n)
    grp = group(n)
    for _ in range(20):
        s = random_sequence(rng, grp, rng.randrange(0, 7))
        canon = s.canonicalize()
        assert canon == naive_canonical(s)
        # constant across the orbit
        for alpha in rng.sample(grp.automorphisms(), min(8, len(grp.automorphisms()))):
            moved = s.apply_hom(alpha)
            assert moved.canonicalize() == canon


def test_orbit_size_divides_group_order():
    rng = random.Random(9)
    for n in range(2, 7):
        grp = group(n)
        for _ in range(10):
            s = random_sequence(rng, grp, rng.randrange(0, 7))
            size = orbit_size(s)
            assert size == len(naive_orbit(s))
            assert len(grp.automorphisms()) % size == 0


@given(
    st.integers(min_value=2, max_value=6),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_multiset_semantics_ignore_order(n, terms):
    grp = group(n)
    a = Sequence.from_terms(grp, terms)
    b = Sequence.from_terms(grp, list(reversed(terms)))
    assert a == b and hash(a) == hash(b)
    assert len(a) == len(terms)
    assert a.sigma() == b.sigma()


@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_concat_then_remove_is_identity(xs, ys):
    grp = group(5)
    a = Sequence.from_terms(grp, xs)
    b = Sequence.from_terms(grp, ys)
    ab = Sequence(grp, a.items() + b.items())
    assert ab.remove(b) == a
    assert ab.sigma() == grp.add(a.sigma(), b.sigma())
