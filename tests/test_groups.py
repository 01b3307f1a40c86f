from __future__ import annotations

import random

import numpy as np
import pytest

from zerosum import Group, group
from zerosum.errors import NotABasis

from oracles import subgroup_generated_by

# |GL(2, Z/nZ)| for n = 2..8, frozen from the scan itself plus the closed
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
    auts = grp.automorphisms()
    assert len(auts) == GL2_SIZES[n]


def test_automorphisms_are_bijections():
    grp = group(4)
    elems = grp.elements()
    auts = grp.automorphisms()
    rng = random.Random(7)
    for alpha in rng.sample(auts, 20):
        assert len({alpha(g) for g in elems}) == len(elems)


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


def test_discrete_log():
    grp = group(6)
    g = (2, 3)
    for x in range(grp.element_order(g)):
        assert grp.discrete_log(g, grp.scale(x, g)) == x
    assert grp.discrete_log((2, 0), (1, 0)) is None


def test_perm_table_matches_automorphisms():
    for n in range(2, 9):
        grp = group(n)
        perm = grp.perm_table()
        assert perm.dtype == np.int16
        assert perm.shape == (len(grp.automorphisms()), grp.size)
        for alpha, row in zip(grp.automorphisms(), perm.tolist()):
            assert row == [grp.index(alpha(g)) for g in grp.elements()]


@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_tables_match_perm_table(n):
    grp = group(n)
    perm = grp.perm_table()
    orbit_min, order, bounds = grp.orbit_tables()
    for x in range(grp.size):
        assert orbit_min[x] == min(grp.index(alpha(grp.unindex(x))) for alpha in grp.automorphisms())
        for y in range(grp.size):
            sending = order[x, bounds[x][y]:bounds[x][y + 1]]
            assert sorted(sending.tolist()) == np.flatnonzero(perm[:, x] == y).tolist()
            assert order.ravel()[grp.transversal(x, y)].tolist() == sending.tolist()


@pytest.mark.parametrize("n", range(2, 9))
def test_inverse_rows_undo_their_rows(n):
    grp = group(n)
    perm, inverse = grp.perm_table(), grp.inverse_rows()
    assert (perm[inverse[:, None], perm] == np.arange(grp.size)).all()


def test_index_tables():
    grp = group(4)
    add = grp.add_index_table()
    neg = grp.neg_index_table()
    for g in grp.elements():
        for h in grp.elements():
            assert add[grp.index(g)][grp.index(h)] == grp.index(grp.add(g, h))
        assert neg[grp.index(g)] == grp.index(grp.neg(g))


def test_random_automorphism_is_seed_deterministic():
    grp = group(6)
    rng_a, rng_b = random.Random(123), random.Random(123)
    a = [grp.random_automorphism(rng_a) for _ in range(5)]
    b = [grp.random_automorphism(rng_b) for _ in range(5)]
    assert a == b
    assert all(grp.is_unit(alpha.det) for alpha in a)


def test_group_validation():
    with pytest.raises(ValueError):
        Group(1)
    with pytest.raises(ValueError):
        Group(0)
    assert Group(2) == Group(2)
    assert Group(2) != Group(3)
