from types import SimpleNamespace

import pytest

from zerosum import group, perturbation
from zerosum.errors import (
    BudgetExceeded,
    NotASubsequence,
    PreconditionViolated,
    SchemaError,
    SumMismatch,
    WitnessCheckFailed,
)
from zerosum.perturbation import perturb, upsilon_class, verify_perturbation
from zerosum.sequences import Sequence


def seq(n, items):
    return Sequence(group(n), items)


class TestUpsilonClass:
    def test_twin_heavy(self):
        s = seq(4, (((1, 0), 3), ((0, 1), 3), ((1, 1), 1)))
        cls = upsilon_class(s)
        assert cls.tag == "non_unique"
        assert cls.witness is not None

    def test_unique_heavy(self):
        # residues (0, 0, 2, 3) sum to 1 mod 4
        s = seq(4, (((1, 0), 3), ((0, 1), 2), ((2, 1), 1), ((3, 1), 1)))
        assert upsilon_class(s).tag == "unique"

    def test_outside_family(self):
        s = seq(4, (((1, 0), 4), ((0, 1), 3)))
        cls = upsilon_class(s)
        assert cls.tag == "not_in_upsilon"
        assert cls.witness is None


class TestPerturb:
    def test_identity_replacement(self):
        s = seq(4, (((1, 0), 3), ((0, 1), 3), ((1, 1), 1)))
        part = Sequence.from_terms(group(4), [(1, 0), (0, 1)])
        assert perturb(s, part, part) == s

    def test_shape_change(self):
        s = seq(4, (((1, 0), 3), ((0, 1), 3), ((1, 1), 1)))
        removed = Sequence(group(4), [((1, 0), 2)])
        added = Sequence.from_terms(group(4), [(1, 1), (1, 3)])
        out = perturb(s, removed, added)
        assert len(out) == 7
        assert out.sigma() == (0, 0)

    def test_not_a_subsequence(self):
        s = seq(4, (((1, 0), 1), ((0, 1), 3)))
        removed = Sequence(group(4), [((1, 0), 2)])
        added = Sequence.from_terms(group(4), [(2, 0), (0, 0)])
        with pytest.raises(NotASubsequence):
            perturb(s, removed, added)

    def test_sum_mismatch(self):
        s = seq(4, (((1, 0), 3), ((0, 1), 3), ((1, 1), 1)))
        removed = Sequence(group(4), [((1, 0), 2)])
        added = Sequence.from_terms(group(4), [(1, 0), (0, 1)])
        with pytest.raises(SumMismatch):
            perturb(s, removed, added)


# (lemma, m) -> (bases scanned, per-item achieved-set sizes)
SUITE_SHAPE = {
    ("I", 4): (4, {"1": 1, "2": 5, "3": 4}),
    ("I", 5): (20, {"1": 1, "2": 6, "3": 5}),
    ("I", 6): (69, {"1": 1, "2": 7, "3": 6}),
    ("II", 4): (1, {"1": 4, "2": 4, "3": 2, "4": 4, "5": 4}),
    ("II", 5): (1, {"1": 5, "2": 5, "3": 2, "4": 5, "5": 5}),
    ("II", 6): (1, {"1": 6, "2": 6, "3": 2, "4": 6, "5": 6}),
    ("III", 4): (1, {"1": 1, "2": 1, "3": 2, "4": 2, "5": 2}),
    ("III", 5): (1, {"1": 1, "2": 1, "3": 2, "4": 2, "5": 2}),
    ("III", 6): (1, {"1": 1, "2": 1, "3": 2, "4": 2, "5": 2}),
}


@pytest.mark.parametrize("lemma,m", sorted(SUITE_SHAPE))
def test_lemma_suite_passes(lemma, m):
    report = verify_perturbation(m, lemma)
    scanned, sizes = SUITE_SHAPE[(lemma, m)]
    assert report.passed
    assert report.orbits_scanned == scanned
    assert {
        k: len(v["achieved"]) for k, v in report.details["items"].items()
    } == sizes


def test_twin_item1_achieves_whole_line():
    report = verify_perturbation(4, "II")
    item = report.details["items"]["1"]
    assert item["achieved"] == [[0, 0], [0, 1], [0, 2], [0, 3]]
    assert item["achieved"] == item["stated"]


def test_strong_lemma_is_tight_at_four():
    report = verify_perturbation(4, "III")
    for item in report.details["items"].values():
        assert item["achieved"] == item["stated"]


def test_equivariance_under_basis_change():
    plain = verify_perturbation(5, "II")
    moved = verify_perturbation(5, "II", basis=((1, 2), (0, 1)))
    assert moved.passed == plain.passed
    for key, item in plain.details["items"].items():
        other = moved.details["items"][key]
        assert len(other["achieved"]) == len(item["achieved"])
        assert len(other["stated"]) == len(item["stated"])
        assert other["cases"] == item["cases"]


def test_jobs_do_not_change_the_report():
    one = verify_perturbation(5, "I", jobs=1)
    two = verify_perturbation(5, "I", jobs=2)
    assert one.to_json(timing=False) == two.to_json(timing=False)


def test_base_outside_family_raises(monkeypatch):
    wrong = SimpleNamespace(tag="unique")
    monkeypatch.setattr(perturbation, "upsilon_class", lambda seq: wrong)
    with pytest.raises(WitnessCheckFailed):
        verify_perturbation(4, "II")


def test_input_validation():
    with pytest.raises(PreconditionViolated):
        verify_perturbation(3, "I")
    with pytest.raises(BudgetExceeded):
        verify_perturbation(7, "I")
    with pytest.raises(SchemaError):
        verify_perturbation(4, "IV")
