import itertools

import pytest

from zerosum import decomposition
from zerosum.classification import construct_exceptional
from zerosum.decomposition import (
    BlockDecomposition,
    SwapContext,
    apply_swap,
    associated_sequence,
    block_decompositions,
    named_swap,
    named_swap_selection,
)
from zerosum.errors import (
    BudgetExceeded,
    EmptySequence,
    HomSumMismatch,
    InvalidRange,
    LengthMismatch,
    NotASubsequence,
    PatternUnavailable,
    PreconditionViolated,
    WitnessCheckFailed,
)
from zerosum.groups import group
from zerosum.lifting import mul_hom
from zerosum.sequences import Sequence
from zerosum.subsums import is_minimal_zero_sum


def big_instance():
    """Length-39 minimal zero-sum over (Z/20Z)^2 in the one-coset family,
    with image terms covering e1bar, e2bar and e3bar = 2*e1bar + e2bar."""
    g20 = group(20)
    xs = [0, 0, 2, 2, 5, 5, 5, 5, 10, 10, 10, 10, 15, 15, 15, 15, 1, 1, 7, 8]
    assert sum(xs) % 20 == 1
    return Sequence(g20, [((1, 0), 19)] + [((x, 1), 1) for x in xs])


def manual_decomposition():
    """Hand-picked strict decomposition of big_instance whose head holds
    both named-swap patterns (x copies of e1bar plus an e2bar image, and
    n-x copies plus an e3bar image)."""
    S = big_instance()
    g20 = S.group
    hom = mul_hom(20, 4)
    ctx = SwapContext((1, 0), (0, 1), 2)
    W0 = Sequence(
        g20,
        (((1, 0), 4), ((2, 1), 1), ((5, 1), 1), ((10, 1), 1), ((1, 1), 1), ((8, 1), 1)),
    )
    blocks = (
        Sequence(g20, (((2, 1), 1), ((7, 1), 1), ((1, 1), 1), ((0, 1), 2))),
        Sequence(g20, (((5, 1), 3), ((10, 1), 2))),
        Sequence(g20, (((10, 1), 1), ((15, 1), 4))),
        Sequence(g20, (((1, 0), 5),)),
        Sequence(g20, (((1, 0), 5),)),
        Sequence(g20, (((1, 0), 5),)),
    )
    d = BlockDecomposition(W0, blocks, hom, ctx)
    assert d.sequence() == S
    return d


def test_worked_small_decomposition():
    g3 = group(3)
    S = Sequence(g3, (((1, 0), 2), ((0, 1), 5), ((1, 1), 1)))
    found = list(block_decompositions(S, 3, 1, exhaustive=True))
    assert found
    target = Sequence(g3, (((0, 1), 3),))
    assert target in [d.blocks[0] for d in found]
    for d in found:
        assert d.sequence() == S
        assert d.strict
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
    d = next(block_decompositions(Sequence.repeated(g3, (0, 0), 8), 3, 1))
    assert d.W0 == Sequence.repeated(g3, (0, 0), 5)


def test_wrong_length_rejected():
    g3 = group(3)
    S = Sequence.repeated(g3, (1, 0), 7)
    with pytest.raises(LengthMismatch):
        next(iter(block_decompositions(S, 3, 1)))


def test_hom_blocksize_mismatch_rejected():
    S = big_instance()
    with pytest.raises(PreconditionViolated):
        next(iter(block_decompositions(S, 4, 8, mul_hom(20, 4))))


def test_first_found_is_deterministic_and_conservative():
    S = big_instance()
    hom = mul_hom(20, 4)
    a = next(iter(block_decompositions(S, 5, 6, hom)))
    b = next(iter(block_decompositions(S, 5, 6, hom)))
    assert a == b
    assert a.strict
    assert a.sequence() == S
    assert len(a.W0) == 9
    assert all(len(blk) == 5 for blk in a.blocks)


def test_zero_blocks_decomposition():
    g3 = group(3)
    S = Sequence(g3, (((1, 0), 2), ((0, 1), 2), ((1, 1), 1)))
    assert is_minimal_zero_sum(S)
    (d,) = list(block_decompositions(S, 3, 0, exhaustive=True))
    assert d.W0 == S
    assert d.blocks == ()


def test_exhaustive_cap():
    S = big_instance()
    hom = mul_hom(20, 4)
    with pytest.raises(BudgetExceeded):
        list(block_decompositions(S, 5, 6, hom, exhaustive=True, cap=3))


def test_associated_sequence_minimal_in_kernel():
    d = manual_decomposition()
    assoc = d.associated()
    assert assoc is not None
    assert associated_sequence(d).sums == assoc.sums
    assert len(assoc.sums) == 7  # 2m-1 parts for m=4
    assert assoc.sums.group.n == 4
    assert assoc.sums.is_zero_sum()
    assert is_minimal_zero_sum(assoc.sums)
    assert assoc.per_block[0] == (2, 1)


def test_type_labels():
    d = manual_decomposition()
    labels = d.associated().type_labels((1, 0), (0, 1))
    assert labels[0] == ("II", 2)
    assert labels.count(("I", None)) == 3  # the three pure-f1 blocks
    assert all(kind in ("I", "II") for kind, _ in labels)


def test_apply_swap_identity_and_involution():
    d = manual_decomposition()
    g20 = d.W0.group
    T = Sequence.from_terms(g20, [(1, 0)])
    same = apply_swap(d, 0, 4, T, T)
    assert same == d
    R = Sequence.from_terms(g20, [(1, 0)])  # equal image, same element here
    d2 = apply_swap(d, 0, 4, T, R)
    assert apply_swap(d2, 0, 4, R, T) == d


def test_apply_swap_cross_fiber_terms_keep_weak_validity():
    g8 = group(8)
    hom = mul_hom(8, 4)
    W0 = Sequence.from_terms(g8, [(1, 0), (3, 0)])
    W1 = Sequence.from_terms(g8, [(1, 2), (5, 2)])
    d = BlockDecomposition(W0, (W1,), hom)
    assert not d.strict
    T = Sequence.from_terms(g8, [(1, 0)])
    R = Sequence.from_terms(g8, [(1, 2)])  # same image (1, 0) under coords
    d2 = apply_swap(d, 0, 1, T, R)
    assert d2.W0 == Sequence.from_terms(g8, [(3, 0), (1, 2)])
    assert d2.blocks[0] == Sequence.from_terms(g8, [(5, 2), (1, 0)])
    # unequal-length trade leaves a weak decomposition
    T2 = Sequence.from_terms(g8, [(3, 0), (1, 2)])
    sigma_T2 = hom.image_coords(hom(T2.sigma()))
    assert sigma_T2 == (0, 0)
    with pytest.raises(HomSumMismatch):
        apply_swap(d2, 0, 1, T2, Sequence.from_terms(g8, [(5, 2)]))


def test_apply_swap_validation():
    d = manual_decomposition()
    g20 = d.W0.group
    T = Sequence.from_terms(g20, [(1, 0)])
    with pytest.raises(InvalidRange):
        apply_swap(d, 2, 2, T, T)
    with pytest.raises(InvalidRange):
        apply_swap(d, 0, 9, T, T)
    with pytest.raises(NotASubsequence):
        apply_swap(d, 1, 0, T, T)  # block 1 has no (1,0) term
    with pytest.raises(HomSumMismatch):
        apply_swap(d, 0, 1, T, Sequence.from_terms(g20, [(0, 1)]))


def test_swap_emptying_a_part_is_rejected():
    g8 = group(8)
    hom = mul_hom(8, 4)
    W0 = Sequence.from_terms(g8, [(1, 0), (3, 0)])
    W1 = Sequence.from_terms(g8, [(2, 0), (2, 0)])
    d = BlockDecomposition(W0, (W1,), hom)
    empty = Sequence.empty(g8)
    with pytest.raises(EmptySequence):
        apply_swap(d, 0, 1, W0, empty)


def test_named_swap_round_trip_and_assoc_positions():
    d = manual_decomposition()
    T, R = named_swap_selection(d, "e2plus_e3", 1)
    assert T.items() == (((1, 0), 2), ((5, 1), 1))
    assert R.items() == (((2, 1), 1),)
    d2 = named_swap(d, "e2plus_e3", 1)
    assert not d2.strict  # x+1 terms left, one came back
    before = d.associated().per_block
    after = d2.associated().per_block
    assert before[2:] == after[2:]
    assert before[0] != after[0] or before[1] != after[1]
    # inverse selection restores the original decomposition
    assert apply_swap(d2, 0, 1, R, T) == d


def test_named_swap_e3_variant():
    d = manual_decomposition()
    T, R = named_swap_selection(d, "e3plus_e2", 1)
    assert T.items() == (((1, 0), 3), ((2, 1), 1))
    assert R.items() == (((0, 1), 1),)
    d2 = named_swap(d, "e3plus_e2", 1)
    assert apply_swap(d2, 0, 1, R, T) == d


def test_named_swap_pattern_unavailable():
    d = manual_decomposition()
    g20 = d.W0.group
    hom = d.hom
    # a head with no e2bar-image term
    alt = BlockDecomposition(
        Sequence.repeated(g20, (1, 0), 5),
        (
            Sequence(
                g20,
                (((5, 1), 1), ((10, 1), 1), ((15, 1), 1), ((2, 1), 1), ((8, 1), 1)),
            ),
        ),
        hom,
        d.context,
    )
    with pytest.raises(PatternUnavailable):
        named_swap(alt, "e2plus_e3", 1)
    # target block without an e3bar-image term
    with pytest.raises(PatternUnavailable):
        named_swap(d, "e2plus_e3", 4)


def test_named_swap_needs_context():
    d = manual_decomposition()
    bare = BlockDecomposition(d.W0, d.blocks, d.hom, None)
    with pytest.raises(PreconditionViolated):
        named_swap(bare, "e2plus_e3", 1)
    with pytest.raises(InvalidRange):
        named_swap(d, "sideways", 1)
    with pytest.raises(InvalidRange):
        named_swap(d, "e2plus_e3", 0)


def test_constructor_validation():
    g8 = group(8)
    hom = mul_hom(8, 4)
    with pytest.raises(PreconditionViolated):
        BlockDecomposition(Sequence.from_terms(g8, [(1, 0)]), (), hom)
    with pytest.raises(EmptySequence):
        BlockDecomposition(Sequence.from_terms(g8, [(2, 0), (6, 0)]),
                           (Sequence.empty(g8),), hom)
    with pytest.raises(PreconditionViolated):
        BlockDecomposition(Sequence.from_terms(group(6), [(3, 0), (3, 0)]), (), hom)


def test_exhaustive_stream_is_duplicate_free():
    g3 = group(3)
    S = Sequence(g3, (((1, 0), 3), ((0, 1), 3), ((1, 1), 3), ((2, 2), 2)))
    assert len(S) == 11  # (2+2)*3 - 1
    found = list(block_decompositions(S, 3, 2, exhaustive=True))
    keys = [tuple(p.items() for p in d.parts) for d in found]
    assert len(keys) == len(set(keys))
    again = list(block_decompositions(S, 3, 2, exhaustive=True))
    assert [d.parts for d in found] == [d.parts for d in again]
    for d in found:
        assert d.sequence() == S


def test_non_minimal_head_is_rejected(monkeypatch):
    monkeypatch.setattr(decomposition, "is_minimal_zero_sum", lambda seq: False)
    with pytest.raises(WitnessCheckFailed):
        next(block_decompositions(construct_exceptional(5, 2), 5, 1))
