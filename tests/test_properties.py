import random

import pytest

from zerosum import group, perturbation
from zerosum.classification import verify_casen
from zerosum.errors import EmptySequence, PreconditionViolated
from zerosum.perturbation import verify_perturbation
from zerosum.properties import (
    has_property_a,
    matches_eq1,
    matches_eq2,
    property_a_witnesses,
    verify_property_b,
    verify_property_c,
)
from zerosum.sequences import Sequence

from oracles import (
    every_landing,
    naive_eq1_readings,
    naive_property_a_witnesses,
    random_automorphism,
    random_sequence,
)


def seq(n, terms):
    return Sequence.from_terms(group(n), terms)


class TestPropertyA:
    def test_witness_pair_found(self):
        s = seq(3, [(1, 0), (1, 0), (0, 1), (1, 1)])
        ws = property_a_witnesses(s)
        assert ((1, 0), (0, 1)) in ws and ((0, 1), (1, 0)) in ws
        assert has_property_a(s)

    def test_no_witness_when_support_spreads(self):
        # (1,1) sits in a different coset of <(1,0)> than (0,1), and
        # symmetrically for every other choice of e1
        s = seq(3, [(1, 0), (0, 1), (1, 1), (2, 2), (1, 2)])
        assert property_a_witnesses(s) == []
        assert not has_property_a(s)

    def test_single_element_support(self):
        ws = property_a_witnesses(seq(3, [(1, 0)] * 4))
        # e1 need not appear in the sequence; any coset generating the
        # quotient works once the support fits inside {e1} or the coset
        assert ((1, 0), (0, 1)) in ws and ((1, 0), (0, 2)) in ws
        assert ((1, 1), (0, 2)) in ws
        assert len(ws) == 8

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequence):
            property_a_witnesses(Sequence(group(3), ()))

    def test_witness_count_is_orbit_invariant(self):
        rng = random.Random(7)
        grp = group(4)
        s = seq(4, [(1, 0), (1, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 1)])
        base = len(property_a_witnesses(s))
        assert base > 0
        for _ in range(10):
            phi = random_automorphism(grp, rng)
            assert len(property_a_witnesses(s.apply_hom(phi))) == base


def _property_a_cases(n, rng):
    """Every single-element support, random sequences, and partial family
    members (copies of (1, 0) and terms of the line (0, 1) + <(1, 0)>,
    some with one stray term), each also moved by a random automorphism."""
    grp = group(n)
    elems = grp.elements()
    cases = [Sequence(grp, [(g, rng.randrange(1, n))]) for g in elems]
    cases += [random_sequence(rng, grp, rng.randrange(1, 2 * n - 1)) for _ in range(60)]
    for _ in range(60):
        terms = [((1, 0), rng.randrange(n))]
        terms += [((rng.randrange(n), 1), 1) for _ in range(rng.randrange(n + 1))]
        if rng.random() < 0.3:
            terms.append((rng.choice(elems), 1))
        s = Sequence(grp, terms)
        if len(s):
            cases.append(s)
    return cases + [s.apply_hom(random_automorphism(grp, rng)) for s in cases]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_property_a_witnesses_agrees_with_oracle(n):
    """Equal witnesses in equal order (lexicographic in (e1, e2)) to the
    oracle that tries every basis, found by closure, and every normalised
    e2."""
    rng = random.Random(90 + n)
    found = missed = 0
    for s in _property_a_cases(n, rng):
        got = property_a_witnesses(s)
        assert got == naive_property_a_witnesses(s), s
        found += bool(got)
        missed += not got
    assert found > 0 and missed > 0


class TestEq1:
    def test_reading_found(self):
        s = seq(3, [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1)])
        ws = matches_eq1(s)
        assert [(w.e1, w.e2, w.xs) for w in ws] == [
            ((0, 1), (1, 0), (0, 0, 1)),
            ((1, 0), (0, 1), (0, 0, 1)),
        ]

    def test_residue_sum_must_be_one(self):
        assert matches_eq1(seq(3, [(1, 0), (1, 0), (0, 1), (0, 1), (0, 1)])) == []

    def test_wrong_length_rejected(self):
        assert matches_eq1(seq(3, [(1, 0), (0, 1)])) == []

    def test_transport_under_automorphism(self):
        rng = random.Random(11)
        grp = group(5)
        s = seq(5, [(1, 0)] * 4 + [(0, 1)] * 4 + [(1, 1)])
        assert matches_eq1(s)
        for _ in range(10):
            assert matches_eq1(s.apply_hom(random_automorphism(grp, rng)))


def _eq1_cases(n, rng):
    """Family members, the twin-heavy shape, a heavy term of non-maximal
    order and wrong-residue-sum near-misses, each also moved by a random
    automorphism."""
    grp = group(n)
    f1, f2 = (1, 0), (0, 1)
    cases = [Sequence(grp, [(f1, n - 1), (f2, n - 1), ((1, 1), 1)])]
    for target in (1, 1, 0, 2):  # 1: family member, else: wrong residue sum
        xs = [rng.randrange(n) for _ in range(n - 1)]
        xs.append((target - sum(xs)) % n)
        cases.append(Sequence(grp, [(f1, n - 1)] + [((x, 1), 1) for x in xs]))
    if n == 4:
        cases.append(seq(4, [(2, 0)] * 3 + [(0, 1), (1, 1), (2, 1), (1, 3)]))
        cases.append(seq(4, [(2, 0)] * 3 + [(1, 0)] * 3 + [(2, 0)]))
    return cases + [s.apply_hom(random_automorphism(grp, rng)) for s in cases]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_matches_eq1_agrees_with_oracle(n):
    """Equal readings in equal order (element order of e1) to the oracle
    that tries every basis and every normalised e2."""
    rng = random.Random(40 + n)
    for s in _eq1_cases(n, rng):
        got = [(w.e1, w.e2, w.xs) for w in matches_eq1(s)]
        assert got == naive_eq1_readings(s), s


@pytest.mark.parametrize("m", [4, 5, 6])
def test_matches_eq1_agrees_with_oracle_on_perturbation_landings(m, monkeypatch):
    """Every landing of the moves of perturbation lemmas I-III at modulus
    m: family members and near misses whose heavy term is in no basis with
    the first other term, whose terms all but one lie in a coset of the
    heavy term's line (m = 4 and 6), or whose residues sum to other than 1.
    The landing scan yields exactly the landings the oracle reads, each
    with the tag its readings give."""
    landings = set()
    scan = perturbation._landings

    def recording(grp, base, pivots):
        got = list(scan(grp, base, pivots))
        want = []
        for g, u, w, seq in every_landing(base, pivots):
            landings.add(seq)
            heavy = sum(1 for _, k in seq.items() if k == m - 1)
            if naive_eq1_readings(seq):
                want.append((g, u, w, "unique" if heavy == 1 else "non_unique"))
        assert got == want, (base, pivots)
        yield from got

    monkeypatch.setattr(perturbation, "_landings", recording)
    for lemma in ("I", "II", "III"):
        verify_perturbation(m, lemma, jobs=1)
    assert len(landings) > 100
    readings = 0
    for s in landings:
        got = [(w.e1, w.e2, w.xs) for w in matches_eq1(s)]
        assert got == naive_eq1_readings(s), s
        readings += len(got)
    assert readings > 0


class TestEq2:
    def test_all_role_assignments_found(self):
        s = seq(4, [(1, 0)] * 3 + [(0, 1)] * 3 + [(3, 1)] * 3)
        got = {(w.e1, w.e2, w.x) for w in matches_eq2(s)}
        assert got == {
            ((1, 0), (0, 1), 3),
            ((1, 0), (3, 1), 1),
            ((3, 1), (0, 1), 3),
            ((3, 1), (1, 0), 1),
        }

    def test_non_basis_third_element_rejected(self):
        s = seq(4, [(1, 0)] * 3 + [(0, 1)] * 3 + [(2, 2)] * 3)
        assert matches_eq2(s) == []

    def test_multiplicity_profile_required(self):
        s = seq(3, [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)])
        assert matches_eq2(s)
        assert matches_eq2(seq(3, [(1, 0)] * 4 + [(0, 1), (1, 1)])) == []


@pytest.mark.parametrize("n,orbits", [(2, 1), (3, 1), (4, 2), (5, 5)])
def test_property_b_holds(n, orbits):
    report = verify_property_b(n)
    assert report.passed
    assert report.orbits_scanned == orbits
    assert report.counterexamples == []


@pytest.mark.parametrize("n,orbits", [(2, 1), (3, 1), (4, 1), (5, 2)])
def test_property_c_holds(n, orbits):
    report = verify_property_c(n)
    assert report.passed
    assert report.orbits_scanned == orbits
    assert report.details["without_basis_form"] == 0


@pytest.mark.parametrize("verify", [verify_property_b, verify_property_c, verify_casen])
@pytest.mark.parametrize("n", [1, 0, -3])
def test_verifiers_reject_moduli_below_two(verify, n):
    with pytest.raises(PreconditionViolated):
        verify(n)


def coset_family_member(grp, rng, shift=0):
    """Random maximal-length member with coset representative e2 + shift*e1."""
    N = grp.n
    xs = [rng.randrange(N) for _ in range(N - 1)]
    xs.append((1 - sum(xs) - shift * N) % N)
    e2 = (shift % N, 1)
    terms = [((1, 0), N - 1)]
    for x in xs:
        terms.append((grp.add(grp.scale(x, (1, 0)), e2), 1))
    return Sequence(grp, terms)


def test_random_coset_family_members_are_minimal():
    from zerosum.subsums import is_minimal_zero_sum

    rng = random.Random(20260815)
    for N in range(2, 8):
        grp = group(N)
        for _ in range(6):
            s = coset_family_member(grp, rng).apply_hom(random_automorphism(grp, rng))
            assert len(s) == 2 * N - 1
            assert is_minimal_zero_sum(s)
            assert matches_eq1(s)


def test_coset_shift_freedom():
    # a witness pair keeps witnessing when its coset representative moves
    # by multiples of e1: same coset, same normalized pair; and building
    # the family with any representative lands on the same e1-anchored
    # witness
    e1 = (1, 0)
    for N in (3, 4, 5):
        grp = group(N)
        line = grp.cyclic_subgroup(e1)
        base = coset_family_member(grp, random.Random(7))
        for e1w, e2w in property_a_witnesses(base):
            coset = {grp.add(g, e2w) for g in grp.cyclic_subgroup(e1w)}
            for t in range(N):
                rep = grp.add(e2w, grp.scale(t, e1w))
                assert grp.is_basis(e1w, rep)
                assert {grp.add(g, rep) for g in grp.cyclic_subgroup(e1w)} == coset
                assert min(coset) == e2w  # normalization is shift-independent
        for t in range(1, N):
            shifted = coset_family_member(grp, random.Random(7), shift=t)
            assert (e1, (0, 1)) in property_a_witnesses(shifted)
            assert (e1, (0, 1)) in {(w.e1, w.e2) for w in matches_eq1(shifted)}
            rep = grp.add((0, 1), grp.scale(t, e1))
            coset = {grp.add(g, rep) for g in line}
            assert set(shifted.support()) <= {e1} | coset


def test_coset_term_count_is_multiple_of_modulus():
    import itertools

    for N in (2, 3):
        grp = group(N)
        elems = grp.elements()
        for L in range(1, 7 if N == 3 else 6):
            for combo in itertools.combinations_with_replacement(elems, L):
                s = Sequence.from_terms(grp, combo)
                if not s.is_zero_sum():
                    continue
                for e1, e2 in property_a_witnesses(s):
                    coset = {grp.add(g, e2) for g in grp.cyclic_subgroup(e1)}
                    count = sum(m for g, m in s.items() if g in coset)
                    assert count % N == 0


def test_eq1_reading_iff_support_witness():
    from zerosum.enumeration import EnumSpec, enumerate_sequences

    for N in (2, 3, 4, 5):
        reps, _ = enumerate_sequences(EnumSpec(N, 2 * N - 1, "minimal-zero-sum"))
        assert reps
        for s in reps:
            assert bool(matches_eq1(s)) == bool(property_a_witnesses(s))
            assert matches_eq1(s)  # one-coset structure at maximal length
