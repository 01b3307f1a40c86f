"""Perturbation stability of the long minimal zero-sum family.

Over (Z/mZ)^2, write Upsilon for the family of length-(2m-1) sequences of
the shape f1^[m-1] * prod_{i in [1,m]} (x_i f1 + f2), sum x_i = 1 (mod m) —
the minimal zero-sums of maximal length.  The family splits by whether the
multiplicity-(m-1) term is unique ("unique") or not ("non_unique"); in the
latter case S = f1^[m-1] f2^[m-1] (f1+f2) for some basis, since a second
multiplicity-(m-1) value among the x_i forces the residues (x^[m-1], x+1).

Three lemmas (m >= 4) constrain two-term replacements

    S' = S - t1 - t2 + (t1 + g) + (t2 - g)

that land back in the family: the offset g is confined to a small stated
set, often with S' = S outright.  verify_perturbation checks every item of
one lemma exhaustively over all admissible parameters and all g, for one
basis; automorphism equivariance (tested separately) extends the result to
every basis, since the family, the moves, and the stated sets all
transport along automorphisms.

A landing S' is never built as a Sequence.  All m^2 landings of one move
share the remainder R = S - t1 - t2 and differ only in their two new terms
u = t1 + g and w = t2 - g, so the remainder is read once per move, and
only the offsets g that can pass the rule below are classified, from u
and w alone (``_landings``):

* The multiplicity of x in S' is v_x(R) + [u = x] + [w = x], so only the
  terms of R of multiplicity at least m - 3 can reach m - 1.  These are the
  heavy candidates.
* S' is in the family iff some heavy candidate e1 has count m - 1 in S'
  and passes the line rule ``properties._line`` (the rule ``matches_eq1``
  reads with) on det(e1, x) over the rest of the support of S': R's
  determinants, plus det(e1, u) and det(e1, w) for whichever of u, w is
  not e1.  A landing only adds determinants, so the rule is read once per
  move, on R's: None means e1 passes at no landing, and a unit d means a
  landing passes iff det(e1, u) and det(e1, w) (for u, w != e1) are d.
  This is exact, since R holds a term besides e1 whenever e1 can have
  count m - 1: R = e1^[2m-3] would give it count 2m - 3 > m - 1 in S'.
  Of these tests the count and det(e1, u) suffice, as they force
  det(e1, w) = d.  With e1 of count m - 1, S' has m other terms, counted
  with multiplicity, and since S' is a zero-sum and det(e1, e1) = 0 their
  determinants with e1 sum to det(e1, sigma(S')) = 0 (mod m).  If w != e1
  and the other m - 1 of them are d, then det(e1, w) = -(m - 1)d = d.
* Only a few offsets can pass the rule of one heavy candidate e1, of
  count k in R with the unit d: g = e1 - t1 (so that u = e1), g = t2 - e1
  (so that w = e1) and, when k = m - 1, the m offsets g = x0 + s*e1 - t1
  for s in Z/m, with x0 any term of R other than e1 (it exists, as said
  above).  At any other g, u != e1 and w != e1, so e1 has count k in S'.
  If k != m - 1 the count test fails.  If k = m - 1, the rule needs
  det(e1, u) = d = det(e1, x0).  Since d is a unit, (e1, x0) is a basis,
  and det(e1, a*e1 + b*x0) = b*d is zero only for b = 0: the kernel of
  det(e1, .) is <e1>, so u - x0 is in <e1>, and u lies on x0 + <e1>,
  which the last m offsets cover.  Only the union of these 2 + m
  offsets per candidate is tested, each by the whole rule and in the
  order of g; at m = 4..6 the lemmas test 8,119 offsets where all m^2
  per move would be 45,166.
* The tag counts the candidates of multiplicity m - 1 in S', as
  upsilon_class counts every term of S' of that multiplicity.

The rule leaves out the residue-sum condition sum x_i = 1 (mod m), because
every landing satisfies it.  Each base is a family member, hence a
zero-sum of length 2m - 1, and the landings are checked to have the
base's sum (SumMismatch otherwise), so S' is a zero-sum of length 2m - 1
too.  Since u + w = t1 + t2 at every g, all m^2 landings of a move sum
to sigma(R) + t1 + t2, and one check per move stands for one per
landing.  If S' = e1^[m-1] * prod_{i in [1,m]} (x_i e1 + e2), its sum is
(m - 1 + sum x_i) e1 + m e2 = (sum x_i - 1) e1, and e1 has order m (the
line rule implies it; ``properties`` docstring), so S' sums to zero
exactly when sum x_i = 1 (mod m).  An exact move claims S' = S, and as
S' = S - t1 - t2 + u + w that holds exactly when {u, w} = {t1, t2} as
multisets, so no landing is built to be compared with S.
"""

from __future__ import annotations

import dataclasses
import itertools

from .enumeration import fan_out
from .errors import PreconditionViolated, SchemaError, SumMismatch, WitnessCheckFailed
from .groups import Elem, Group, group
from .properties import Eq1Witness, _line, matches_eq1
from .report import Report, Stopwatch
from .sequences import Sequence

_LEMMAS = ("I", "II", "III")

# a lemma-I grid of fewer residue multisets is scanned in-process at any
# jobs.  Forking pays off at m = 8 (792 multisets: jobs=2 0.43-0.47 s
# against 0.65-0.66 s at jobs=1) and not at m = 7 (238: a forced pool
# 0.21-0.25 s against 0.16 s in two of three rounds, 0.148 s against
# 0.156 s in the third) or m = 6 (69: 0.055-0.070 s against 0.036-0.038
# s), medians of rounds of 16 alternating fresh interpreters (BENCH_48);
# m = 4 (4 multisets) and m = 5 (20) lose to the pool's start-up
# (BENCH_27)
_SERIAL_GRID = 512


@dataclasses.dataclass(frozen=True)
class UpsilonClass:
    tag: str  # "not_in_upsilon" | "unique" | "non_unique"
    witness: Eq1Witness | None


def upsilon_class(seq: Sequence) -> UpsilonClass:
    """Membership of the family, split by uniqueness of the heavy term."""
    readings = matches_eq1(seq)
    return UpsilonClass(
        _tag(seq.group.n, bool(readings), (k for _, k in seq.items())),
        readings[0] if readings else None,
    )


def _tag(m: int, in_family: bool, mults) -> str:
    """The tag of a sequence from its membership and mults, the
    multiplicities of its terms (at least of each that may be m - 1)."""
    if not in_family:
        return "not_in_upsilon"
    heavy = sum(1 for k in mults if k == m - 1)
    return "unique" if heavy == 1 else "non_unique"


@dataclasses.dataclass(frozen=True)
class _Move:
    """One admissible replacement: remove the two pivots, add their
    g-shifted versions, and expect any in-family result to have g inside
    the stated set (with S' = S when exact is set)."""

    item: int
    params: tuple
    pivots: tuple[Elem, Elem]
    stated: frozenset[Elem]
    exact: bool


def _cyclic(grp: Group, g: Elem) -> frozenset[Elem]:
    return frozenset(grp.cyclic_subgroup(g))


def _family_member(grp: Group, f1: Elem, f2: Elem, xs: tuple[int, ...], tag: str) -> Sequence:
    """f1^[m-1] * prod (x f1 + f2) over xs, checked to have upsilon tag ``tag``."""
    terms = [(grp.add(grp.scale(x, f1), f2), 1) for x in xs]
    base = Sequence(grp, [(f1, grp.n - 1)] + terms)
    if upsilon_class(base).tag != tag:
        raise WitnessCheckFailed(f"base {base!r} is not {tag}")
    return base


def _moves_unique(grp: Group, f1: Elem, f2: Elem, xs: tuple[int, ...]) -> list[_Move]:
    m = grp.n
    zero = grp.zero
    coset = {v: grp.add(grp.scale(v, f1), f2) for v in set(xs)}
    moves = [_Move(1, (), (f1, f1), frozenset([zero]), True)]
    for v in sorted(coset):
        stated = frozenset([zero, grp.add(grp.scale(v - 1, f1), f2)])
        moves.append(_Move(2, (v,), (f1, coset[v]), stated, True))
    counts = {v: xs.count(v) for v in coset}
    f1_line = _cyclic(grp, f1)
    for v, w in itertools.product(sorted(coset), repeat=2):
        if v == w and counts[v] < 2:
            continue
        moves.append(_Move(3, (v, w), (coset[v], coset[w]), f1_line, False))
    return moves


def _moves_twin(grp: Group, f1: Elem, f2: Elem, lemma: str) -> list[_Move]:
    zero = grp.zero
    u = grp.add(f1, f2)
    near_u = frozenset([zero, grp.sub(f2, f1)])
    if lemma == "II":
        stated = [_cyclic(grp, f2), _cyclic(grp, f1), near_u,
                  _cyclic(grp, f2), _cyclic(grp, f1)]
        exact = [False, False, True, False, False]
    else:
        stated = [frozenset([zero]), frozenset([zero]), near_u,
                  frozenset([zero, f2]), frozenset([zero, f1])]
        exact = [True] * 5
    pivots = [(f1, f1), (f2, f2), (f1, f2), (f1, u), (f2, u)]
    return [
        _Move(i + 1, (), pivots[i], stated[i], exact[i]) for i in range(5)
    ]


def _landings(grp: Group, base: Sequence, pivots: tuple[Elem, Elem]):
    """The in-family landings S' = S - t1 - t2 + u + w of the move with
    these pivots on the base S, with u = t1 + g and w = t2 - g, as
    (g, u, w, tag) in the order of g over grp.elements(); tag is
    upsilon_class(S').tag, found by the rule of the module docstring on the
    candidate offsets of each heavy candidate, the only g that can pass it.

    Raises NotASubsequence if the pivots do not divide S, PreconditionViolated
    if S is not a zero-sum of length 2m - 1 (the rule needs both), and
    SumMismatch, before any landing, if the landings do not sum to
    sigma(S)."""
    m = grp.n
    remainder = base.remove(Sequence.from_terms(grp, pivots))
    total = base.sigma()
    if total != grp.zero or len(base) != 2 * m - 1:
        raise PreconditionViolated(f"{base!r} is not a zero-sum of length {2 * m - 1}")
    (a1, b1), (a2, b2) = pivots
    ra, rb = remainder.sigma()
    # u + w = t1 + t2 at every g, so every landing has this sum
    landed_sum = ((ra + a1 + a2) % m, (rb + b1 + b2) % m)
    if landed_sum != total:
        raise SumMismatch(f"pivots {pivots} change the sum: {landed_sum} != {total}")
    rest = remainder.items()
    det = grp.det
    candidates = [(x, k) for x, k in rest if k >= m - 3]
    lines = [(e1, k, _line(grp, (det(e1, x) for x, _ in rest if x != e1))) for e1, k in candidates]
    lines = [(e1, k, d) for e1, k, d in lines if d is not None]
    offsets = set()
    for e1, k, d in lines:
        offsets.add(((e1[0] - a1) % m, (e1[1] - b1) % m))  # u = e1
        offsets.add(((a2 - e1[0]) % m, (b2 - e1[1]) % m))  # w = e1
        if k == m - 1:
            # u on R's line x0 + <e1>
            x0 = next(x for x, _ in rest if x != e1)
            offsets.update(((x0[0] + s * e1[0] - a1) % m, (x0[1] + s * e1[1] - b1) % m)
                           for s in range(m))
    for g in sorted(offsets):
        u, w = ((a1 + g[0]) % m, (b1 + g[1]) % m), ((a2 - g[0]) % m, (b2 - g[1]) % m)
        for e1, k, d in lines:
            # the count and det(e1, u) force det(e1, w) = d (module docstring)
            if k + (u == e1) + (w == e1) == m - 1 and (u == e1 or det(e1, u) == d):
                yield g, u, w, _tag(m, True, (k + (u == x) + (w == x) for x, k in candidates))
                break


def _run_moves(grp, base, moves, target_nu, extra) -> tuple[dict, list]:
    """Apply every move to the base sequence for every g; returns the
    per-item offsets and cases (``_merge_accum``) and the violations.

    The in-family landings and their tags come from ``_landings`` (module
    docstring), which reads the remainder S - t1 - t2 and its line rule
    once per move and tests only the offsets that can pass it; each move
    still counts all m^2 offsets as cases.  On an exact move S' = S is
    {u, w} = {t1, t2} as multisets (module docstring)."""
    accum, counterexamples = {}, []
    cases = len(grp.elements())
    for move in moves:
        achieved = set()
        for g, u, w, tag in _landings(grp, base, move.pivots):
            if target_nu and tag != "non_unique":
                continue
            achieved.add(g)
            bad = None
            if g not in move.stated:
                bad = "achieved offset outside the stated set"
            elif move.exact and (u, w) != move.pivots and (w, u) != move.pivots:
                bad = "stated offset fails to restore the sequence"
            if bad is not None:
                counterexamples.append(
                    {
                        "item": move.item,
                        "params": list(move.params),
                        "g": list(g),
                        "reason": bad,
                        **extra,
                    }
                )
        part = {"stated": move.stated, "achieved": achieved, "cases": cases}
        _merge_accum(accum, {move.item: part})
    return accum, counterexamples


def _scan(grp: Group, f1: Elem, f2: Elem, lemma: str, xs: tuple[int, ...]) -> tuple[dict, list]:
    """Every move of one lemma on the family member of the residues xs:
    unique-heavy for lemma I, twin-heavy for lemmas II and III."""
    if lemma == "I":
        base = _family_member(grp, f1, f2, xs, "unique")
        return _run_moves(grp, base, _moves_unique(grp, f1, f2, xs), False, {"xs": list(xs)})
    base = _family_member(grp, f1, f2, xs, "non_unique")
    return _run_moves(grp, base, _moves_twin(grp, f1, f2, lemma), lemma == "III", {})


def _unique_grid(m: int) -> list[tuple[int, ...]]:
    """All residue multisets giving a unique-heavy family member: sum 1 mod
    m and no residue repeated exactly m-1 times."""
    return [
        xs
        for xs in itertools.combinations_with_replacement(range(m), m)
        if sum(xs) % m == 1
        and all(xs.count(v) != m - 1 for v in set(xs))
    ]


def _merge_accum(total: dict, part: dict) -> None:
    for item, slot in part.items():
        into = total.setdefault(item, {"stated": set(), "achieved": set(), "cases": 0})
        into["stated"] |= slot["stated"]
        into["achieved"] |= slot["achieved"]
        into["cases"] += slot["cases"]


def verify_perturbation(
    m: int,
    lemma: str,
    *,
    basis: tuple[Elem, Elem] | None = None,
    jobs: int = 1,
) -> Report:
    """Exhaustively check one perturbation lemma for modulus m.

    Lemma I ranges over every unique-heavy family member (all residue
    multisets), lemmas II and III over the single twin-heavy shape; all
    moves and all offsets g are tried.  Any in-family landing with g
    outside the stated set, or failing a claimed S' = S, is a
    counterexample.  Details record the stated and achieved offset sets
    per item, so tightness can be read off the Report.
    """
    if lemma not in _LEMMAS:
        raise SchemaError(f"lemma must be one of {_LEMMAS}, got {lemma!r}")
    if m < 4:
        raise PreconditionViolated(f"the perturbation lemmas require m >= 4, got {m}")
    grp = group(m)
    if basis is None:
        basis = ((1, 0), (0, 1))
    f1, f2 = grp.element(*basis[0]), grp.element(*basis[1])
    grp.require_basis(f1, f2)
    with Stopwatch() as sw:
        grid = _unique_grid(m) if lemma == "I" else [(0,) * (m - 1) + (1,)]
        accum: dict = {}
        counterexamples: list = []
        if len(grid) < _SERIAL_GRID:
            jobs = 1
        for part, bad in fan_out(lambda xs: _scan(grp, f1, f2, lemma, xs), grid, jobs):
            _merge_accum(accum, part)
            counterexamples.extend(bad)
        # order must not depend on the worker split
        counterexamples.sort(key=repr)
        items = {
            str(item): {
                "stated": sorted(map(list, slot["stated"])),
                "achieved": sorted(map(list, slot["achieved"])),
                "cases": slot["cases"],
            }
            for item, slot in accum.items()
        }
    return Report(
        check="perturbation",
        params={"m": m, "lemma": lemma, "basis": [list(f1), list(f2)]},
        orbits_scanned=len(grid),
        counterexamples=counterexamples,
        elapsed_ms=sw.elapsed_ms,
        details={"items": items},
    )
