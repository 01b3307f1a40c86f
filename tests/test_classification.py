import random

import pytest

from zerosum import classification, group
from zerosum.classification import (
    classify_long_zero_sum,
    construct_exceptional,
    verify_casen,
)
from zerosum.errors import (
    InvalidCounts,
    InvalidX,
    NotABasis,
    PreconditionViolated,
    WitnessCheckFailed,
)
from zerosum.sequences import Sequence

from ledger import LEDGER
from oracles import random_automorphism


class TestConstructExceptional:
    def test_standard_basis_shape(self):
        s = construct_exceptional(5, 2)
        assert s.items() == (
            ((0, 1), 4),
            ((1, 0), 5),
            ((2, 1), 4),
            ((2, 2), 1),
        )

    @pytest.mark.parametrize(
        "n,x,a,b,c",
        [(5, 3, 1, 1, 1), (5, 2, 2, 1, 1), (7, 4, 1, 2, 1), (8, 5, 1, 1, 2)],
    )
    def test_valid_parameters_accepted(self, n, x, a, b, c):
        s = construct_exceptional(n, x, a, b, c)
        assert len(s) == (a + b + c) * n - 1
        assert s.is_zero_sum()

    @pytest.mark.parametrize(
        "n,x",
        [(2, 2), (3, 2), (4, 2), (5, 1), (5, 4), (6, 2), (6, 3), (6, 4), (8, 4)],
    )
    def test_invalid_x_rejected(self, n, x):
        with pytest.raises(InvalidX):
            construct_exceptional(n, x)

    def test_invalid_counts_rejected(self):
        with pytest.raises(InvalidCounts):
            construct_exceptional(5, 2, a=0)

    def test_bad_basis_rejected(self):
        with pytest.raises(NotABasis):
            construct_exceptional(5, 2, basis=((1, 0), (2, 0)))

    def test_failed_recheck_raises(self, monkeypatch):
        monkeypatch.setattr(classification, "has_property_a", lambda seq: True)
        with pytest.raises(WitnessCheckFailed):
            construct_exceptional(5, 2)

    def test_custom_basis(self):
        s = construct_exceptional(5, 3, basis=((1, 1), (0, 1)))
        out = classify_long_zero_sum(s)
        assert out.kind == "item2"
        assert any(w.x == 3 and w.e1 == (1, 1) for w in out.item2)


class TestClassify:
    def test_exceptional_has_two_readings(self):
        # swapping the roles of e2 and x*e1 + e2 rereads x=2 as x=3
        out = classify_long_zero_sum(construct_exceptional(5, 2))
        assert out.kind == "item2"
        assert sorted(w.x for w in out.item2) == [2, 3]

    def test_item1_example(self):
        s = Sequence(group(3), (((1, 0), 5), ((0, 1), 2), ((1, 1), 1)))
        out = classify_long_zero_sum(s)
        assert out.kind == "item1"
        assert ((1, 0), (0, 1)) in out.item1

    def test_kind_is_orbit_invariant(self):
        rng = random.Random(5)
        grp = group(5)
        s = construct_exceptional(5, 2)
        for _ in range(5):
            t = s.apply_hom(random_automorphism(grp, rng))
            assert classify_long_zero_sum(t).kind == "item2"

    def test_not_zero_sum_rejected(self):
        s = Sequence(group(3), [((1, 0), 8)])
        with pytest.raises(PreconditionViolated):
            classify_long_zero_sum(s)

    def test_wrong_length_rejected(self):
        s = Sequence(group(3), [((1, 0), 6)])
        with pytest.raises(PreconditionViolated):
            classify_long_zero_sum(s)

    def test_short_zero_sum_rejected(self):
        g3 = group(3)
        # a zero term; a zero-sum of length exactly n - 1 and none shorter
        for s in (Sequence(g3, (((0, 0), 2), ((1, 0), 3), ((0, 1), 3))),
                  Sequence(g3, (((1, 0), 1), ((2, 0), 1), ((0, 1), 3), ((0, 2), 3)))):
            with pytest.raises(PreconditionViolated):
                classify_long_zero_sum(s)


# the ledger's casen rows that test_small_scans reads, in its id order
CASEN_ROWS = [LEDGER[f"casen n={n} s={s}"] for n, s in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2))]


class TestVerifyCasen:
    @pytest.mark.parametrize(
        "n,s,orbits,kinds",
        [(row["params"]["n"], row["params"]["s"], row["orbits_scanned"], row["details"]["kinds"])
         for row in CASEN_ROWS],
    )
    def test_small_scans(self, n, s, orbits, kinds):
        report = verify_casen(n, s)
        assert report.passed
        assert report.orbits_scanned == orbits
        assert report.details["kinds"] == kinds

    def test_budget_guard(self):
        # the search budget is the CLI's; the library guards only s >= 1
        with pytest.raises(PreconditionViolated):
            verify_casen(3, 0)

    def test_force_runs_out_of_default_range(self):
        # (2, 3) is past the CLI's budget, which the library does not apply
        report = verify_casen(2, 3)
        assert report.passed
        assert report.details["kinds"]["unclassified"] == 0
