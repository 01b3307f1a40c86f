"""Structural properties of zero-sum free and minimal zero-sum sequences.

Three properties of the group (Z/nZ)^2 are mechanized here, each a
statement about the shape of extremal sequences:

* Property A: a zero-sum free sequence of maximal length 2n-2 has, for
  some basis (e1, e2), all its terms in {e1} union (e2 + <e1>).
* Property B: every minimal zero-sum sequence of length 2n-1 is, for some
  basis (e1, e2), equal to e1^[n-1] * prod_{i=1..n} (x_i e1 + e2) with
  x_1 + ... + x_n = 1 (mod n).
* Property C: every sequence of length 3n-3 with no zero-sum subsequence
  of length at most n is g1^[n-1] g2^[n-1] g3^[n-1] for three distinct
  elements g1, g2, g3.

The witness finders work on any sequence; the verify_* functions exhaust
the relevant search space up to automorphism and report counterexamples.

Properties A and B share one shape: the support minus one term e1 lies on
one line e2 + <e1> of a basis (e1, e2).  Both read it with one rule,
``_line``, on the determinants det(e1, g) over the rest of the support:
writing g = a*e1 + b*g0 in a basis (e1, g0) gives det(e1, g) =
b*det(e1, g0), so the rest lies on the line g0 + <e1> iff its determinants
hold one value, and (e1, g0) is a basis iff that value is a unit.  The rule
needs no test of the order of e1: if e1 = (a, b) and c = gcd(n, a, b) > 1,
c divides every det(e1, g) = a*g[1] - b*g[0], so none is a unit.  A line
is named by its least member (``_least_on_line``).
"""

from __future__ import annotations

import dataclasses

from .enumeration import EnumSpec
from .errors import EmptySequence
from .groups import Elem, Group
from .report import Report, run_search
from .sequences import Sequence


def _line(grp: Group, dets) -> int | None:
    """The line rule of the module docstring: the unit d if dets, the
    determinants det(e1, g) over the rest of the support (any iterable),
    hold exactly one value and that value is a unit; otherwise None."""
    dets = set(dets)
    if len(dets) != 1:
        return None
    (d,) = dets
    return d if grp.is_unit(d) else None


def _least_on_line(grp: Group, e1: Elem, g0: Elem) -> Elem:
    """The least member of the line g0 + <e1>."""
    n = grp.n
    return min(((g0[0] + t * e1[0]) % n, (g0[1] + t * e1[1]) % n) for t in range(n))


def property_a_witnesses(seq: Sequence) -> list[tuple[Elem, Elem]]:
    """All normalized bases (e1, e2) with supp(S) inside {e1} union (e2 + <e1>).

    Whether (e1, e2) is a basis depends only on the coset e2 + <e1>, so e2
    is normalized to the least member of its coset; each qualifying coset
    then contributes exactly one witness per e1.
    """
    if len(seq) == 0:
        raise EmptySequence("property A is about nonempty sequences")
    grp = seq.group
    supp = seq.support()
    out = []
    for e1 in grp.max_order_elements():
        rest = [g for g in supp if g != e1]
        if rest:
            if _line(grp, (grp.det(e1, g) for g in rest)) is not None:
                out.append((e1, _least_on_line(grp, e1, rest[0])))
        else:
            # support is {e1} alone: any coset generating the quotient works
            seen = {_least_on_line(grp, e1, g) for g in grp.elements() if grp.is_basis(e1, g)}
            out.extend((e1, e2) for e2 in sorted(seen))
    return out


def has_property_a(seq: Sequence) -> bool:
    return bool(property_a_witnesses(seq))


@dataclasses.dataclass(frozen=True)
class Eq1Witness:
    """Reading of a sequence as e1^[n-1] * prod (x_i e1 + e2), sum x_i = 1."""

    e1: Elem
    e2: Elem
    xs: tuple[int, ...]


def matches_eq1(seq: Sequence) -> list[Eq1Witness]:
    """All ways to read the sequence in the long minimal zero-sum shape,
    in element order of e1.

    The shape forces |S| = 2n - 1 and v_{e1}(S) = n - 1 exactly, since the
    n coset terms avoid <e1>.  Candidates e1 are the terms of that
    multiplicity that pass ``_line``; the rest of the support then fixes
    the coset, normalized as in property_a_witnesses.  The residue-sum
    condition does not depend on the representative e2 of the coset:
    shifting it by e1 moves each of the n residues by one, and their sum
    by n.
    """
    grp, items = seq.group, seq.items()
    n = grp.n
    if len(seq) != 2 * n - 1:
        return []
    out = []
    for e1, mult in items:
        if mult != n - 1:
            continue  # not heavy; skip building the determinants
        rest = [(g, k) for g, k in items if g != e1]
        d = _line(grp, (grp.det(e1, g) for g, _ in rest))
        if d is None:
            continue
        e2 = _least_on_line(grp, e1, rest[0][0])
        # g = x*e1 + e2 in the basis (e1, e2), and x = det(g, e2) / d
        inv = pow(d, -1, n)
        xs = [(inv * grp.det(g, e2) % n, k) for g, k in rest]
        if sum(x * k for x, k in xs) % n != 1:
            continue
        out.append(Eq1Witness(e1, e2, tuple(sorted(x for x, k in xs for _ in range(k)))))
    return out


@dataclasses.dataclass(frozen=True)
class Eq2Witness:
    """Reading of a sequence as e1^[n-1] e2^[n-1] (x e1 + e2)^[n-1]."""

    e1: Elem
    e2: Elem
    x: int


def matches_eq2(seq: Sequence) -> list[Eq2Witness]:
    """All ways to read the sequence as e1^[n-1] e2^[n-1] (x e1 + e2)^[n-1]
    for a basis (e1, e2) and x in [1, n-1]."""
    grp = seq.group
    n = grp.n
    if n < 2 or len(seq) != 3 * (n - 1):
        return []
    supp = seq.support()
    if len(supp) != 3 or any(seq.multiplicity(g) != n - 1 for g in supp):
        return []
    out = []
    for e1 in supp:
        for e2 in supp:
            if e1 == e2 or not grp.is_basis(e1, e2):
                continue
            (third,) = [g for g in supp if g not in (e1, e2)]
            x, y = grp.coords_in_basis(third, e1, e2)
            if y == 1 and 1 <= x <= n - 1:
                out.append(Eq2Witness(e1, e2, x))
    return out


def verify_property_b(n: int, *, jobs: int = 1) -> Report:
    """Exhaustively check that every minimal zero-sum sequence of length
    2n-1 over (Z/nZ)^2 admits an Eq1Witness reading.

    One representative per automorphism orbit suffices: applying an
    automorphism to a witness basis transports the reading.
    """
    return run_search(
        "property-b", {"n": n}, EnumSpec(n, 2 * n - 1, "minimal-zero-sum"),
        lambda reps: ([s.to_json_obj() for s in reps if not matches_eq1(s)], {}),
        jobs=jobs,
    )


def verify_property_c(n: int, *, jobs: int = 1) -> Report:
    """Exhaustively check that every sequence of length 3n-3 over (Z/nZ)^2
    with no zero-sum subsequence of length <= n has three distinct terms of
    multiplicity n-1 each.

    Sequences of that shape which additionally fail to be of the form
    e1^[n-1] e2^[n-1] (x e1 + e2)^[n-1] are counted separately in
    details["without_basis_form"]; they are not counterexamples.
    """

    def classify(reps: list[Sequence]) -> tuple[list, dict]:
        bad = []
        without_form = 0
        for s in reps:
            supp = s.support()
            if len(supp) != 3 or any(s.multiplicity(g) != n - 1 for g in supp):
                bad.append(s.to_json_obj())
            elif not matches_eq2(s):
                without_form += 1
        return bad, {"without_basis_form": without_form}

    spec = EnumSpec(n, 3 * (n - 1), "no-short-zero-sum", {"k": n})
    return run_search("property-c", {"n": n}, spec, classify, jobs=jobs)
