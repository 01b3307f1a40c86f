"""Property B's orbit set against its family and its zero-sum-free partner.

For N = 3..7 the search's orbits of minimal zero-sums of length 2N - 1 must
be exactly the canonical forms of the family e1^[N-1] prod (x_i e1 + e2)
(``oracles.property_b_family``).  They must also match the zero-sum-free
orbits T of length 2N - 2 both ways: T (-sigma(T)) is a property-B orbit,
and removing one copy of any term of a property-B orbit gives a zero-sum-free
orbit, and each side is all of what the other gives.

Limit: a family check cannot see a dropped orbit outside the family.  The
partner check can, unless both searches drop matching orbits.
"""

from __future__ import annotations

import pytest

from zerosum.enumeration import EnumSpec, decode_leaves, enumerate_leaves
from zerosum.sequences import Sequence

from oracles import property_b_family

MODULI = range(3, 8)


def _orbits(n: int, length: int, predicate: str) -> set:
    leaves, _ = enumerate_leaves(EnumSpec(n, length, predicate), jobs=1)
    return set(decode_leaves(n, leaves))


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
