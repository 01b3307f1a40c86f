"""The search's orbit sets against their families, both ways.

For N = 3..7 the search's orbits of minimal zero-sums of length 2N - 1 must
be exactly the canonical forms of the family e1^[N-1] prod (x_i e1 + e2)
(``oracles.property_b_family``).  They must also match the zero-sum-free
orbits T of length 2N - 2 both ways: T (-sigma(T)) is a property-B orbit,
and removing one copy of any term of a property-B orbit gives a zero-sum-free
orbit, and each side is all of what the other gives.  Every such T has a
property A reading.

casen's orbits of zero-sums of length (2 + s)n - 1 with no zero-sum part
shorter than n must be the disjoint union of its two families, built on
the standard basis (Aut is transitive on bases): item 1, e1^[an-1]
prod (x_i e1 + e2) with sum x_i = 1 (mod n) for a = 1..1 + s, kept when it
has no zero-sum part shorter than n; and item 2, every
``construct_exceptional(n, x, a, b, c)``.

Limit: a family check cannot see a dropped orbit outside the family.  The
partner check can, unless both searches drop matching orbits.  casen's item
1 family is filtered by ``has_short_zero_sum``, the guard the search runs,
so a guard fault that both share is not seen here.
"""

from __future__ import annotations

import itertools
from math import gcd

import pytest

from zerosum.classification import construct_exceptional
from zerosum.enumeration import EnumSpec, decode_leaves, enumerate_leaves
from zerosum.groups import group
from zerosum.properties import property_a_witnesses
from zerosum.sequences import Sequence
from zerosum.subsums import has_short_zero_sum

from oracles import property_b_family

MODULI = range(3, 8)
# (n, s) -> the orbit counts of casen's item 1 and item 2 families
CASEN = {(3, 1): (3, 0), (4, 1): (11, 0), (4, 2): (38, 0), (5, 1): (44, 1),
         (5, 2): (198, 3), (6, 1): (183, 0)}


def _orbits(n: int, length: int, predicate: str, params=None) -> set:
    leaves, _ = enumerate_leaves(EnumSpec(n, length, predicate, params or {}), jobs=1)
    return set(decode_leaves(n, leaves))


def _casen_item1(n: int, s: int) -> set:
    grp, out = group(n), set()
    for a in range(1, 2 + s):
        for xs in itertools.combinations_with_replacement(range(n), (2 + s - a) * n):
            if sum(xs) % n != 1:
                continue
            seq = Sequence(grp, [((1, 0), a * n - 1)] + [((x, 1), 1) for x in xs])
            if not has_short_zero_sum(seq, n - 1):
                out.add(seq.canonicalize())
    return out


def _casen_item2(n: int, s: int) -> set:
    return {
        construct_exceptional(n, x, a, b, 2 + s - a - b).canonicalize()
        for x in range(2, n - 1) if gcd(x, n) == 1
        for a in range(1, 1 + s)
        for b in range(1, 2 + s - a)
    }


@pytest.fixture(scope="module")
def property_b() -> dict:
    return {n: _orbits(n, 2 * n - 1, "minimal-zero-sum") for n in MODULI}


@pytest.fixture(scope="module")
def zero_sum_free() -> dict:
    return {n: _orbits(n, 2 * n - 2, "zero-sum-free") for n in MODULI}


@pytest.mark.parametrize("n", MODULI)
def test_property_b_orbits_are_the_family(n, property_b):
    assert property_b[n] == property_b_family(n)


@pytest.mark.parametrize("n", MODULI)
def test_closing_the_zero_sum_free_orbits_gives_property_b(n, property_b, zero_sum_free):
    closed = set()
    for t in zero_sum_free[n]:
        a, b = t.sigma()
        closed.add(Sequence(t.group, t.items() + (((-a, -b), 1),)).canonicalize())
    assert closed == property_b[n]


@pytest.mark.parametrize("n", MODULI)
def test_opening_property_b_orbits_gives_the_zero_sum_free_ones(n, property_b,
                                                               zero_sum_free):
    opened = {s.remove(Sequence(s.group, ((g, 1),))).canonicalize()
              for s in property_b[n] for g in s.support()}
    assert opened == zero_sum_free[n]


@pytest.mark.parametrize("n", MODULI)
def test_every_zero_sum_free_orbit_has_a_property_a_reading(n, zero_sum_free):
    assert [t for t in zero_sum_free[n] if not property_a_witnesses(t)] == []


@pytest.mark.parametrize("n, s", sorted(CASEN))
def test_casen_orbits_are_its_two_families(n, s):
    item1, item2 = _casen_item1(n, s), _casen_item2(n, s)
    assert (len(item1), len(item2)) == CASEN[n, s]
    assert not item1 & item2
    assert item1 | item2 == _orbits(n, (2 + s) * n - 1, "zero-sum-no-short", {"k": n - 1})
