"""Classification of long zero-sum sequences with no short zero-sum part.

A zero-sum sequence over (Z/nZ)^2 of length (2+s)n - 1 (s >= 1) whose
nonempty subsequences of length up to n-1 all have nonzero sum falls into
one of two shapes:

* item 1: for some basis (e1, e2), every term lies in {e1} union
  (e2 + <e1>) and the multiplicity of e1 is -1 mod n;
* item 2: S = e1^[an] e2^[bn-1] (x e1 + e2)^[cn-1] (x e1 + 2 e2) for a
  basis (e1, e2), x in [2, n-2] coprime to n, and a, b, c >= 1 with
  a + b + c = 2 + s.

classify_long_zero_sum finds every reading of a sequence in either shape;
verify_casen exhausts all candidates of a given (n, s) up to automorphism
and reports any sequence matching neither.
"""

from __future__ import annotations

import dataclasses
from math import gcd

from .enumeration import EnumSpec
from .errors import InvalidCounts, InvalidX, PreconditionViolated, WitnessCheckFailed
from .groups import Elem, group
from .properties import has_property_a, property_a_witnesses
from .report import Report, run_search
from .sequences import Sequence
from .subsums import has_short_zero_sum


def construct_exceptional(
    n: int,
    x: int,
    a: int = 1,
    b: int = 1,
    c: int = 1,
    basis: tuple[Elem, Elem] | None = None,
) -> Sequence:
    """The item-2 sequence e1^[an] e2^[bn-1] (x e1 + e2)^[cn-1] (x e1 + 2 e2).

    Requires x in [2, n-2] with gcd(x, n) = 1 (an empty range for n <= 4,
    and empty after the gcd filter for n = 6) and a, b, c >= 1.  The result
    is checked to sum to zero, to have no nonzero-length zero-sum
    subsequence shorter than n, and to avoid the item-1 shape.
    """
    if not 2 <= x <= n - 2:
        raise InvalidX(f"x must lie in [2, {n - 2}], got {x}")
    if gcd(x, n) != 1:
        raise InvalidX(f"x must be coprime to {n}, got {x}")
    if min(a, b, c) < 1:
        raise InvalidCounts(f"counts must be >= 1, got {(a, b, c)}")
    grp = group(n)
    if basis is None:
        basis = ((1, 0), (0, 1))
    e1, e2 = basis
    grp.require_basis(e1, e2)
    xe1 = grp.scale(x, e1)
    seq = Sequence(
        grp,
        (
            (e1, a * n),
            (e2, b * n - 1),
            (grp.add(xe1, e2), c * n - 1),
            (grp.add(xe1, grp.scale(2, e2)), 1),
        ),
    )
    if not (
        len(seq) == (a + b + c) * n - 1
        and seq.is_zero_sum()
        and not has_short_zero_sum(seq, n - 1)
        and not has_property_a(seq)
    ):
        raise WitnessCheckFailed(f"exceptional sequence {seq!r} does not re-verify")
    return seq


@dataclasses.dataclass(frozen=True)
class Item2Witness:
    """Reading of a sequence in the exceptional item-2 shape."""

    e1: Elem
    e2: Elem
    x: int
    a: int
    b: int
    c: int

    def to_json_obj(self) -> dict:
        return {
            "e1": list(self.e1),
            "e2": list(self.e2),
            "x": self.x,
            "a": self.a,
            "b": self.b,
            "c": self.c,
        }


@dataclasses.dataclass
class ClassificationOutcome:
    item1: list[tuple[Elem, Elem]]
    item2: list[Item2Witness]

    @property
    def classified(self) -> bool:
        return bool(self.item1) or bool(self.item2)

    @property
    def kind(self) -> str:
        if self.item1 and self.item2:
            return "both"
        if self.item1:
            return "item1"
        if self.item2:
            return "item2"
        return "unclassified"

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "item1": [[list(e1), list(e2)] for e1, e2 in self.item1],
            "item2": [w.to_json_obj() for w in self.item2],
        }


def _item2_witnesses(seq: Sequence, s: int) -> list[Item2Witness]:
    grp = seq.group
    n = grp.n
    supp = seq.support()
    if len(supp) != 4:
        return []
    singles = [g for g in supp if seq.multiplicity(g) == 1]
    if len(singles) != 1:
        return []
    (last,) = singles
    out = []
    rest = [g for g in supp if g != last]
    for e1 in rest:
        a, rem_a = divmod(seq.multiplicity(e1), n)
        if rem_a != 0 or a < 1:
            continue
        for e2 in rest:
            if e2 == e1 or not grp.is_basis(e1, e2):
                continue
            b, rem_b = divmod(seq.multiplicity(e2) + 1, n)
            if rem_b != 0 or b < 1:
                continue
            (third,) = [g for g in rest if g not in (e1, e2)]
            x, y = grp.coords_in_basis(third, e1, e2)
            if y != 1 or not 2 <= x <= n - 2 or gcd(x, n) != 1:
                continue
            c, rem_c = divmod(seq.multiplicity(third) + 1, n)
            if rem_c != 0 or c < 1 or a + b + c != 2 + s:
                continue
            if grp.add(third, e2) != last:
                continue
            witness = Item2Witness(e1, e2, x, a, b, c)
            if construct_exceptional(n, x, a, b, c, basis=(e1, e2)) != seq:
                raise WitnessCheckFailed(f"{witness} does not rebuild {seq!r}")
            out.append(witness)
    return out


def classify_long_zero_sum(seq: Sequence) -> ClassificationOutcome:
    """All item-1 and item-2 readings of a qualifying zero-sum sequence.

    The sequence must sum to zero, have length (2+s)n - 1 for some s >= 1,
    and have no zero-sum subsequence of length in [1, n-1]; violations
    raise PreconditionViolated rather than returning "unclassified".
    """
    grp = seq.group
    n = grp.n
    if not seq.is_zero_sum():
        raise PreconditionViolated("sequence does not sum to zero")
    s, rem = divmod(len(seq) + 1 - 2 * n, n)
    if rem != 0 or s < 1:
        raise PreconditionViolated(
            f"length must be (2+s)n - 1 with s >= 1, got {len(seq)} for n={n}"
        )
    if has_short_zero_sum(seq, n - 1):
        raise PreconditionViolated("zero-sum subsequence shorter than n exists")
    item1 = [
        (e1, e2)
        for e1, e2 in property_a_witnesses(seq)
        if seq.multiplicity(e1) % n == n - 1
    ]
    return ClassificationOutcome(item1=item1, item2=_item2_witnesses(seq, s))


def verify_casen(n: int, s: int = 1, *, jobs: int = 1) -> Report:
    """Exhaustively classify every zero-sum sequence of length (2+s)n - 1
    over (Z/nZ)^2 with no zero-sum subsequence shorter than n.

    Counterexamples are the sequences matching neither shape.
    """
    if s < 1:
        raise PreconditionViolated(f"s must be >= 1, got {s}")

    def classify(reps: list[Sequence]) -> tuple[list, dict]:
        kinds = {"item1": 0, "item2": 0, "both": 0, "unclassified": 0}
        bad = []
        for rep in reps:
            outcome = classify_long_zero_sum(rep)
            kinds[outcome.kind] += 1
            if not outcome.classified:
                bad.append(rep.to_json_obj())
        return bad, {"kinds": kinds}

    spec = EnumSpec(n, (2 + s) * n - 1, "zero-sum-no-short", {"k": n - 1})
    return run_search("casen", {"n": n, "s": s}, spec, classify, jobs=jobs)
