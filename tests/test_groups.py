from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from zerosum import Group, group
from zerosum.errors import NotABasis

from oracles import naive_automorphisms, subgroup_generated_by

# |GL(2, Z/nZ)| for n = 2..8, frozen from the reference scan plus the closed
# formula; the n=2 and n=3 values are the classical 6 and 48.
GL2_SIZES = {2: 6, 3: 48, 4: 96, 5: 480, 6: 288, 7: 2016, 8: 1536}


def brute_order(grp: Group, g) -> int:
    acc = g
    k = 1
    while acc != grp.zero:
        acc = grp.add(acc, g)
        k += 1
    return k


@pytest.mark.parametrize("n", range(2, 9))
def test_element_order_matches_brute_force(n):
    grp = group(n)
    for g in grp.elements():
        assert grp.element_order(g) == brute_order(grp, g)


@pytest.mark.parametrize("n", range(2, 9))
def test_max_order_element_count_formula(n):
    grp = group(n)
    expected = n * n
    for p in {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}:
        expected = expected * (p * p - 1) // (p * p)
    assert len(grp.max_order_elements()) == expected


@pytest.mark.parametrize("n", sorted(GL2_SIZES))
def test_automorphism_counts(n):
    grp = group(n)
    assert len(naive_automorphisms(n)) == GL2_SIZES[n]
    assert len(grp.perm_table()) == len(grp.automorphisms()) == GL2_SIZES[n]


def test_automorphisms_are_bijections():
    grp = group(4)
    elems = grp.elements()
    auts, reference = grp.automorphisms(), naive_automorphisms(4)
    rng = random.Random(7)
    for a in rng.sample(range(len(auts)), 20):
        assert auts[a] == reference[a]
        assert len({auts[a](g) for g in elems}) == len(elems)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_is_basis_matches_generated_subgroup(n):
    grp = group(n)
    for e1 in grp.elements():
        for e2 in grp.elements():
            spans = len(subgroup_generated_by(grp, e1, e2)) == grp.size
            assert grp.is_basis(e1, e2) == spans
            assert grp.is_basis(e1, e2) == grp.is_basis(e2, e1)


def test_require_basis_raises():
    grp = group(5)
    with pytest.raises(NotABasis):
        grp.require_basis((0, 1), (0, 2))
    grp.require_basis((0, 1), (1, 0))


@pytest.mark.parametrize("n", [3, 5, 6, 8])
def test_coords_in_basis_roundtrip(n):
    grp = group(n)
    rng = random.Random(n)
    bases = [((0, 1), (1, 0)), ((1, 1), (1, 0))]
    for _ in range(10):
        e1 = (rng.randrange(n), rng.randrange(n))
        e2 = (rng.randrange(n), rng.randrange(n))
        if grp.is_basis(e1, e2):
            bases.append((e1, e2))
    for e1, e2 in bases:
        for g in grp.elements():
            x, y = grp.coords_in_basis(g, e1, e2)
            assert grp.add(grp.scale(x, e1), grp.scale(y, e2)) == g


def test_perm_table_matches_automorphisms():
    """Row a of perm_table is the a-th matrix of the reference scan, and
    automorphisms() reads that scan's list back off the rows."""
    for n in range(2, 9):
        grp = group(n)
        perm, auts = grp.perm_table(), naive_automorphisms(n)
        assert perm.dtype == np.int16
        assert perm.shape == (len(auts), grp.size)
        for alpha, row in zip(auts, perm.tolist()):
            assert row == [grp.index(alpha(g)) for g in grp.elements()]
        assert grp.automorphisms() == auts


@pytest.mark.parametrize("n", range(2, 11))
def test_orbit_tables_match_perm_table(n):
    """Segment x of ``order`` is {alpha : alpha(x) = orbit_min[x]} in row
    order.  The orbits are the element orders, so orbit_min[x] is the least
    index of an element of x's order, and the table holds d(n) |Aut| rows,
    d(n) the number of divisors of n."""
    grp = group(n)
    perm = grp.perm_table()
    orbit_min, order, start = grp.orbit_tables()
    orders = [grp.element_order(g) for g in grp.elements()]
    assert orbit_min == [orders.index(d) for d in orders]
    divisors = sum(n % d == 0 for d in range(1, n + 1))
    assert order.dtype == np.int16 and len(order) == divisors * len(perm)
    assert start.shape == (grp.size + 1,) and start[0] == 0 and start[-1] == len(order)
    for x in range(grp.size):
        sending = np.flatnonzero(perm[:, x] == orbit_min[x])
        assert order[start[x]:start[x + 1]].tolist() == sending.tolist()


@pytest.mark.parametrize("n", range(2, 11))
def test_inverse_rows_undo_their_rows(n):
    """Row a of the inverse table undoes row a of the perm table."""
    grp = group(n)
    perm, inverse = grp.perm_table(), grp.inverse_table()
    assert inverse.dtype == perm.dtype and inverse.shape == perm.shape
    undone = np.take_along_axis(inverse, perm.astype(np.intp), axis=1)
    assert (undone == np.arange(grp.size)).all()


@pytest.mark.parametrize("n", [7, 9])
def test_inverse_table_build_has_no_large_temporary(n):
    """The build's tracemalloc peak, the perm table built beforehand, stays
    under 1.5 times the table itself: no |Aut| x n^2 array of indices is
    built on the way."""
    grp = Group(n)  # not the shared instance, so that the table is built here
    grp.perm_table()
    tracemalloc.start()
    try:
        table = grp.inverse_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.nbytes, (peak, table.nbytes)


@pytest.mark.parametrize("n", range(2, 11))
def test_below_sets_match_perm_table(n):
    """Entry [a, x] of below_sets is {g : alpha(g) < x}, and [a, n^2] is
    {g : alpha(g) < g}, bit g % 64 of the little-endian word g // 64: read
    here bit by bit off the word values, on every row for n <= 7 and on 256
    sampled rows above.  n = 9 and 10 take two words."""
    grp, size = group(n), n * n
    perm, table = grp.perm_table(), grp.below_sets()
    assert table.dtype == np.dtype("<u8")
    assert table.shape == (len(perm), size + 1, -(-size // 64))
    rows = np.arange(len(perm))
    if n >= 8:
        rows = np.random.default_rng(n).choice(rows, 256, replace=False)
    g = np.arange(size)
    bits = table[rows][:, :, g // 64] >> (g % 64).astype(np.uint64) & 1
    images = perm[rows]
    assert (bits[:, :size] == (images[:, None] < g[:, None])).all()
    assert (bits[:, size] == (images < g)).all()


@pytest.mark.parametrize("n", [7, 9])
def test_below_sets_build_has_no_large_temporary(n):
    """The build's tracemalloc peak, the perm table built beforehand, stays
    under twice the table itself: no |Aut| x n^2 array of indices or of
    unpacked bits is built on the way."""
    grp = Group(n)  # not the shared instance, so that the table is built here
    grp.perm_table()
    tracemalloc.start()
    try:
        table = grp.below_sets()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.nbytes, (peak, table.nbytes)


def test_index_tables():
    grp = group(4)
    add = grp.add_index_table()
    neg = grp.neg_index_table()
    for g in grp.elements():
        for h in grp.elements():
            assert add[grp.index(g)][grp.index(h)] == grp.index(grp.add(g, h))
        assert neg[grp.index(g)] == grp.index(grp.neg(g))


def test_group_validation():
    with pytest.raises(ValueError):
        Group(1)
    with pytest.raises(ValueError):
        Group(0)
    assert Group(2) == Group(2)
    assert Group(2) != Group(3)
