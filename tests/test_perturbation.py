import multiprocessing
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from zerosum import group, perturbation
from zerosum.errors import (
    NotASubsequence,
    PreconditionViolated,
    SchemaError,
    SumMismatch,
    WitnessCheckFailed,
)
from zerosum.perturbation import upsilon_class, verify_perturbation
from zerosum.sequences import Sequence

from oracles import every_landing, landing_sequence

# the landing scan itself, taken before a test patches the module's name
landing_scan = perturbation._landings


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


def _scan_two_way(base, pivots, on_landing=lambda landed, tag: None):
    """The landing scan of one move, checked against every landing: all
    m^2 landings are built (``oracles.every_landing``), on_landing(landing,
    tag) is called on each with its upsilon_class tag, and the scan must
    yield exactly the g whose tag is not not_in_upsilon, each with that
    tag, in the order of g.  Returns the scan's (g, u, w, tag) list."""
    got = list(landing_scan(base.group, base, pivots))
    want = []
    for g, u, w, landed in every_landing(base, pivots):
        tag = upsilon_class(landed).tag
        on_landing(landed, tag)
        if tag != "not_in_upsilon":
            want.append((g, u, w, tag))
    assert got == want, (base, pivots)
    return got


def _two_way(on_landing, seen=None):
    """A stand-in for perturbation._landings that checks each move by
    ``_scan_two_way`` and passes the scan's landings on, recording them
    in seen if given."""

    def scan(grp, base, pivots):
        assert grp is base.group
        got = _scan_two_way(base, pivots, on_landing)
        if seen is not None:
            seen.extend(got)
        yield from got

    return scan


def _landings(monkeypatch, base, pivots, on_landing=lambda landed, tag: None):
    """The landings _run_moves reads for one move, as (g, u, w, tag) in the
    order of g over group.elements(), checked against every landing by
    ``_scan_two_way``."""
    seen = []
    monkeypatch.setattr(perturbation, "_landings", _two_way(on_landing, seen))
    move = perturbation._Move(1, (), pivots, frozenset(), False)
    perturbation._run_moves(base.group, base, [move], False, {})
    return seen


TWIN4 = (((1, 0), 3), ((0, 1), 3), ((1, 1), 1))


class TestRunMoves:
    def test_identity_replacement(self, monkeypatch):
        s = seq(4, TWIN4)
        pivots = ((1, 0), (0, 1))
        landed = {g: landing_sequence(s, pivots, u, w)
                  for g, u, w, _ in _landings(monkeypatch, s, pivots)}
        assert landed[(0, 0)] == s

    def test_shape_change(self, monkeypatch):
        # every one of the 16 landings has the shape of a move; the scan
        # yields the four in the family, g in <f2> (lemma II item 1)
        grp = group(4)
        s = seq(4, TWIN4)
        t1, t2 = (1, 0), (1, 0)
        every = []
        landed = _landings(monkeypatch, s, (t1, t2), lambda out, tag: every.append(out))
        assert [g for g, *_ in landed] == [(0, 0), (0, 1), (0, 2), (0, 3)]
        assert len(every) == 16
        for g, out in zip(grp.elements(), every):
            want = Counter(s)
            want.subtract([t1, t2])
            want.update([grp.add(t1, g), grp.sub(t2, g)])
            assert Counter(out) == +want
            assert len(out) == 7
            assert out.sigma() == (0, 0)

    def test_not_a_subsequence(self, monkeypatch):
        s = seq(4, (((1, 0), 1), ((0, 1), 3)))
        with pytest.raises(NotASubsequence):
            _landings(monkeypatch, s, ((1, 0), (1, 0)))

    def test_sum_mismatch(self, monkeypatch):
        # a remainder that still holds both pivots lands off sigma(S) by t1 + t2
        monkeypatch.setattr(Sequence, "remove", lambda self, sub: self)
        with pytest.raises(SumMismatch):
            _landings(monkeypatch, seq(4, TWIN4), ((1, 0), (1, 0)))
        # checked once per move, before the first landing
        with pytest.raises(SumMismatch):
            next(landing_scan(group(4), seq(4, TWIN4), ((1, 0), (1, 0))))
        with pytest.raises(SumMismatch):
            verify_perturbation(4, "I")

    def test_exact_move_reports_a_landing_other_than_the_base(self):
        # lemma II item 1 lands in the family for every g in <f2>, and only
        # g = 0 restores S: claimed exact on the whole group, every other
        # achieved g is reported as failing to restore the sequence
        grp = group(4)
        s = seq(4, TWIN4)
        move = perturbation._Move(1, (), ((1, 0), (1, 0)), frozenset(grp.elements()), True)
        accum, bad = perturbation._run_moves(grp, s, [move], False, {})
        assert accum[1]["achieved"] == {(0, 0), (0, 1), (0, 2), (0, 3)}
        assert [c["g"] for c in bad] == [[0, 1], [0, 2], [0, 3]]
        assert {c["reason"] for c in bad} == {"stated offset fails to restore the sequence"}


@pytest.mark.parametrize("m", [4, 5, 6])
def test_landing_tag_agrees_with_upsilon_class_on_every_landing(m, monkeypatch):
    """Over every landing of lemmas I-III at modulus m, the landing scan
    yields exactly those that upsilon_class puts in the family, each with
    its tag; the reports count every landing as a case."""
    grp, tags = group(m), Counter()

    def check(landed, tag):
        assert landed.group is grp
        tags[tag] += 1

    monkeypatch.setattr(perturbation, "_landings", _two_way(check))
    cases = 0
    for lemma in ("I", "II", "III"):
        items = verify_perturbation(m, lemma, jobs=1).details["items"]
        cases += sum(item["cases"] for item in items.values())
    assert cases == sum(tags.values()) == CASES[m]
    assert tags["unique"] + tags["non_unique"] == LANDINGS[m]
    assert set(tags) == {"not_in_upsilon", "unique", "non_unique"}


def _random_basis(grp, rng):
    while True:
        f1, f2 = rng.choice(grp.elements()), rng.choice(grp.elements())
        if grp.is_basis(f1, f2):
            return f1, f2


def _random_bases(m, rng):
    """Zero-sums of length 2m - 1 with their pivot pairs: unique-heavy and
    twin-heavy family members on random bases, with (f1, f1) among their
    pivots so that g = 0 gives u = w = f1 on a remainder holding f1
    exactly m - 3 times; the shape of the family with a non-unit
    determinant; zero-sums with a heavy term of order below m; and random
    zero-sums.  Every base also gets random pivot pairs."""
    grp = group(m)
    out = []
    for _ in range(3):
        f1, f2 = _random_basis(grp, rng)
        while True:
            xs = [rng.randrange(m) for _ in range(m - 1)]
            xs.append((1 - sum(xs)) % m)
            if all(xs.count(v) != m - 1 for v in xs):
                break
        line = [grp.add(grp.scale(x, f1), f2) for x in xs]
        out.append((Sequence.from_terms(grp, [f1] * (m - 1) + line), [(f1, f1)]))
        f1, f2 = _random_basis(grp, rng)
        twin = Sequence.from_terms(grp, [f1] * (m - 1) + [f2] * (m - 1) + [grp.add(f1, f2)])
        out.append((twin, [(f1, f1), (f2, f2), (f1, f2)]))
        # the other terms on one line of a non-unit determinant with f1:
        # a zero-sum outside the family that a rule without its unit test
        # would read
        d = rng.choice([d for d in range(m) if not grp.is_unit(d)])
        h = grp.scale(d, f2)
        while True:
            xs = [rng.randrange(m) for _ in range(m - 1)]
            xs.append((1 - sum(xs)) % m)
            line = [grp.add(grp.scale(x, f1), h) for x in xs]
            if f1 not in line:
                break
        out.append((Sequence.from_terms(grp, [f1] * (m - 1) + line), []))
    low = rng.choice([g for g in grp.elements() if grp.element_order(g) < m])
    for head in ([low] * (m - 1), []):
        for _ in range(2):
            terms = head + [rng.choice(grp.elements()) for _ in range(2 * m - 2 - len(head))]
            terms.append(grp.neg(Sequence.from_terms(grp, terms).sigma()))
            out.append((Sequence.from_terms(grp, terms), []))
    for base, pivots in out:
        terms = list(base)
        pivots.extend(tuple(rng.sample(terms, 2)) for _ in range(4))
    return out


@pytest.mark.parametrize("m", [7, 8, 9])
def test_landing_tags_agree_with_upsilon_class_past_the_exhaustive_range(m):
    """Past the exhaustive range of the lemma tests: over every g of
    random pivot pairs on random bases, the landing scan yields exactly
    the landings upsilon_class puts in the family, each with its tag (m = 8
    and 9 have non-unit determinants besides 0)."""
    rng = random.Random(2800 + m)
    tags = Counter()
    for base, pivots in _random_bases(m, rng):
        assert base.is_zero_sum() and len(base) == 2 * m - 1
        for pair in pivots:
            _scan_two_way(base, pair, lambda landed, tag: tags.update([tag]))
    assert set(tags) == {"not_in_upsilon", "unique", "non_unique"}


def test_landings_need_a_zero_sum_base_of_length_2m_minus_1():
    grp = group(4)
    with pytest.raises(PreconditionViolated):
        list(landing_scan(grp, seq(4, TWIN4[:2]), ((1, 0), (0, 1))))
    with pytest.raises(PreconditionViolated):
        list(landing_scan(grp, seq(4, TWIN4[:2] + (((2, 1), 1),)), ((1, 0), (0, 1))))


# landings of lemmas I-III together, m^2 per move (the reports' cases):
# 45,166 over m = 4, 5, 6
CASES = {4: 864, 5: 6_250, 6: 38_052}
# of those, the landings in the family, which the landing scan yields
LANDINGS = {4: 176, 5: 984, 6: 5_029}


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


def test_jobs_do_not_change_the_report(monkeypatch):
    monkeypatch.setattr(perturbation, "_SERIAL_GRID", 2)  # so that jobs=2 forks
    one = verify_perturbation(5, "I", jobs=1)
    two = verify_perturbation(5, "I", jobs=2)
    assert one.to_json(timing=False) == two.to_json(timing=False)


def _no_fork(*args, **kwargs):
    raise AssertionError("fan_out forked")


def test_small_lemma_I_grids_stay_in_process(monkeypatch):
    """Below _SERIAL_GRID residue multisets lemma I forks nothing at any
    jobs: every m up to 7 (238 multisets, which the in-process scan now
    finishes before a pool would), but not m = 8 (792)."""
    assert len(perturbation._unique_grid(7)) < perturbation._SERIAL_GRID
    assert len(perturbation._unique_grid(8)) >= perturbation._SERIAL_GRID
    pinned = {m: verify_perturbation(m, "I", jobs=1).to_json(timing=False) for m in (4, 5, 6, 7)}
    monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
    for m in (4, 5, 6, 7):
        assert verify_perturbation(m, "I", jobs=2).to_json(timing=False) == pinned[m]


def test_base_outside_family_raises(monkeypatch):
    wrong = SimpleNamespace(tag="unique")
    monkeypatch.setattr(perturbation, "upsilon_class", lambda seq: wrong)
    with pytest.raises(WitnessCheckFailed):
        verify_perturbation(4, "II")


def test_input_validation():
    with pytest.raises(PreconditionViolated):
        verify_perturbation(3, "I")
    with pytest.raises(SchemaError):
        verify_perturbation(4, "IV")
