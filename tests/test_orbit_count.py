"""The orbit count of the "all" search against Burnside's lemma.

``oracles.burnside_all`` counts the orbits of sequences of a length over
(Z/nZ)^2 from the cycle types of the rows of ``Group.perm_table`` alone,
so it shares no code with the orbit test of the search.  The sizes reach
the multi-word ``below_sets`` (n = 9, 10) and the 512-row spans of the
search's first tier-1 walks at those moduli.  One row also runs forked over
two workers, which must return the jobs=1 leaves in the same order.

Limit: a count cannot see a dropped orbit that an extra, non-canonical
leaf of another orbit makes up for.  So the leaves at (9, 4) and (10, 4)
are also checked to be their own orbit minima.
"""

from __future__ import annotations

import pytest

from zerosum import enumeration
from zerosum.enumeration import EnumSpec, decode_leaves, enumerate_leaves

from oracles import burnside_all

# (n, length) -> orbits, as Burnside's lemma counts them
ORBITS = {(5, 7): 5857, (6, 6): 20117, (7, 5): 1618, (8, 5): 12129,
          (9, 4): 920, (9, 5): 10600, (10, 4): 2594}


@pytest.mark.parametrize("n,length", sorted(ORBITS))
def test_all_leaf_count_is_the_burnside_count(n, length):
    assert burnside_all(n, length) == ORBITS[n, length]
    leaves, stats = enumerate_leaves(EnumSpec(n, length, "all"), jobs=1)
    assert len(leaves) == stats.leaves == ORBITS[n, length]


@pytest.mark.parametrize("n", [9, 10])
def test_all_leaves_are_orbit_minima(n):
    leaves, _ = enumerate_leaves(EnumSpec(n, 4, "all"), jobs=1)
    assert all(s.canonicalize() == s for s in decode_leaves(n, leaves))


def test_forked_all_leaves_are_the_serial_ones(monkeypatch):
    spec = EnumSpec(8, 5, "all")
    serial, _ = enumerate_leaves(spec, jobs=1)
    monkeypatch.setattr(enumeration, "_SERIAL_NODES", 64)  # so that jobs=2 forks
    forked, stats = enumerate_leaves(spec, jobs=2)
    assert len(forked) == stats.leaves == ORBITS[8, 5]
    assert forked == serial
