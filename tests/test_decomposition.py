import random

import pytest

from zerosum import decomposition
from zerosum.classification import construct_exceptional
from zerosum.decomposition import BlockDecomposition, block_decompositions
from zerosum.errors import (
    BudgetExceeded,
    EmptySequence,
    LengthMismatch,
    PreconditionViolated,
    WitnessCheckFailed,
)
from zerosum.groups import group
from zerosum.sequences import Sequence
from zerosum.subsums import is_minimal_zero_sum


def seeded_zero_sum(n, length, seed):
    """length - 1 seeded random terms over (Z/nZ)^2, closed to a zero-sum."""
    rng = random.Random(seed)
    terms = [(rng.randrange(n), rng.randrange(n)) for _ in range(length - 1)]
    terms.append(((-sum(t[0] for t in terms)) % n, (-sum(t[1] for t in terms)) % n))
    return Sequence.from_terms(group(n), terms)


def many_decompositions():
    """A zero-sum of length 15 = (2+2)*4 - 1 over (Z/4Z)^2 with 161
    decompositions into a head and two blocks."""
    S = seeded_zero_sum(4, 15, seed=2)
    assert S.is_zero_sum()
    return S


def _joined(d: BlockDecomposition) -> Sequence:
    """The sequence a decomposition splits: its parts, concatenated."""
    return Sequence(d.W0.group, [item for part in d.parts for item in part.items()])


def test_worked_small_decomposition():
    g3 = group(3)
    S = Sequence(g3, (((1, 0), 2), ((0, 1), 5), ((1, 1), 1)))
    found = list(block_decompositions(S, 3, 1, exhaustive=True))
    assert found
    target = Sequence(g3, (((0, 1), 3),))
    assert target in [d.blocks[0] for d in found]
    for d in found:
        assert _joined(d) == S
        assert len(d.W0) == 5 and len(d.blocks[0]) == 3
        assert is_minimal_zero_sum(d.W0)


def test_mod2_blocks_are_repeated_nonzero():
    g2 = group(2)
    S = Sequence(g2, (((1, 0), 3), ((0, 1), 1), ((1, 1), 1)))
    assert S.is_zero_sum()
    found = list(block_decompositions(S, 2, 1, exhaustive=True))
    assert found
    for d in found:
        (g, mult), = d.blocks[0].items()
        assert mult == 2
        assert g != (0, 0)


def test_heads_are_not_checked_when_s_has_a_short_zero_sum():
    # 0^8 has zero-sums of every length, so its non-minimal head 0^5 is fine
    g3 = group(3)
    d = next(block_decompositions(Sequence(g3, [((0, 0), 8)]), 3, 1))
    assert d.W0 == Sequence(g3, [((0, 0), 5)])


def test_wrong_length_rejected():
    g3 = group(3)
    S = Sequence(g3, [((1, 0), 7)])
    with pytest.raises(LengthMismatch):
        next(iter(block_decompositions(S, 3, 1)))


def test_first_found_is_deterministic_and_conservative():
    S = construct_exceptional(7, 3, 1, 2, 1)  # length 27 = (2+2)*7 - 1
    a = next(iter(block_decompositions(S, 7, 2)))
    b = next(iter(block_decompositions(S, 7, 2)))
    assert a == b
    assert a == next(iter(block_decompositions(S, 7, 2, exhaustive=True)))
    assert _joined(a) == S
    assert len(a.W0) == 13
    assert [len(blk) for blk in a.blocks] == [7, 7]


def test_zero_blocks_decomposition():
    g3 = group(3)
    S = Sequence(g3, (((1, 0), 2), ((0, 1), 2), ((1, 1), 1)))
    assert is_minimal_zero_sum(S)
    (d,) = list(block_decompositions(S, 3, 0, exhaustive=True))
    assert d.W0 == S
    assert d.blocks == ()


def test_exhaustive_cap(monkeypatch):
    S = many_decompositions()
    monkeypatch.setattr(decomposition, "_MAX_DECOMPOSITIONS", 3)
    with pytest.raises(BudgetExceeded):
        list(block_decompositions(S, 4, 2, exhaustive=True))
    monkeypatch.setattr(decomposition, "_MAX_DECOMPOSITIONS", 161)
    assert len(list(block_decompositions(S, 4, 2, exhaustive=True))) == 161


def test_constructor_validation():
    g8 = group(8)
    head = Sequence.from_terms(g8, [(2, 0), (6, 0)])
    with pytest.raises(PreconditionViolated):
        BlockDecomposition(Sequence.from_terms(g8, [(1, 0)]), ())
    with pytest.raises(PreconditionViolated):
        BlockDecomposition(head, (Sequence.from_terms(g8, [(1, 0), (2, 0)]),))
    with pytest.raises(EmptySequence):
        BlockDecomposition(head, (Sequence(g8, ()),))
    with pytest.raises(PreconditionViolated):
        BlockDecomposition(head, (Sequence.from_terms(group(6), [(3, 0), (3, 0)]),))
    assert BlockDecomposition(head, [head]).blocks == (head,)


def test_exhaustive_stream_is_duplicate_free():
    S = many_decompositions()
    found = list(block_decompositions(S, 4, 2, exhaustive=True))
    assert len(found) > 1
    keys = [tuple(p.items() for p in d.parts) for d in found]
    assert len(keys) == len(set(keys))
    again = list(block_decompositions(S, 4, 2, exhaustive=True))
    assert [d.parts for d in found] == [d.parts for d in again]
    for d in found:
        assert _joined(d) == S


def test_non_minimal_head_is_rejected(monkeypatch):
    monkeypatch.setattr(decomposition, "is_minimal_zero_sum", lambda seq: False)
    with pytest.raises(WitnessCheckFailed):
        next(block_decompositions(construct_exceptional(5, 2), 5, 1))
