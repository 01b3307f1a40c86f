"""Length-restricted subsequence sums via dynamic programming.

The table tracks, for each length l up to a bound, the set of group elements
expressible as the sum of a length-l subsequence.  Elements are handled as
flat indices (a*n + b) internally.
"""

from __future__ import annotations

from .errors import InvalidRange, WitnessCheckFailed
from .groups import Elem
from .sequences import Sequence

__all__ = [
    "SumTable",
    "restricted_sums",
    "subsequence_sums",
    "is_zero_sum_free",
    "is_minimal_zero_sum",
    "find_zero_sum_subsequence",
]


class SumTable:
    """Reachability table for subsequence sums of a fixed sequence.

    ``layers[l]`` is the frozenset of element indices that occur as the sum
    of some subsequence of length exactly l, for 0 <= l <= lmax.
    """

    __slots__ = ("seq", "lmax", "layers", "_terms")

    def __init__(self, seq: Sequence, lmax: int):
        if not 0 <= lmax <= len(seq):
            raise InvalidRange(f"lmax must be in [0, {len(seq)}], got {lmax}")
        self.seq = seq
        self.lmax = lmax
        self._terms = [seq.group.index(g) for g in seq]  # sorted by element
        self.layers = _forward_layers(seq, self._terms, lmax)[-1]

    def contains(self, g: Elem, length: int) -> bool:
        """Is g the sum of some subsequence of exactly the given length?"""
        if not 0 <= length <= self.lmax:
            raise InvalidRange(f"length must be in [0, {self.lmax}], got {length}")
        return self.seq.group.index(self.seq.group.element(*g)) in self.layers[length]

    def sums(self, lmin: int, lmax: int) -> frozenset[Elem]:
        if not 0 <= lmin <= lmax <= self.lmax:
            raise InvalidRange(f"need 0 <= lmin <= lmax <= {self.lmax}")
        grp = self.seq.group
        out = set()
        for l in range(lmin, lmax + 1):
            out.update(self.layers[l])
        return frozenset(grp.unindex(i) for i in out)

    def witness(self, g: Elem, length: int) -> Sequence | None:
        """A subsequence of the given exact length summing to g, or None.

        Layers are recomputed prefix by prefix and walked backwards; no
        parent pointers are kept in the table itself.
        """
        if not 0 <= length <= self.lmax:
            raise InvalidRange(f"length must be in [0, {self.lmax}], got {length}")
        grp = self.seq.group
        target = grp.index(grp.element(*g))
        if target not in self.layers[length]:
            return None
        history = _forward_layers(self.seq, self._terms, self.lmax)
        add = grp.add_index_table()
        neg = grp.neg_index_table()
        picked: list[int] = []
        need, l = target, length
        for i in range(len(self._terms), 0, -1):
            t = self._terms[i - 1]
            # prefer skipping the term; deterministic because terms are sorted
            if need in history[i - 1][l]:
                continue
            picked.append(t)
            need = add[need][neg[t]]
            l -= 1
        out = Sequence.from_terms(grp, (grp.unindex(t) for t in picked))
        if not (
            l == 0 and need == grp.index(grp.zero)
            and len(out) == length and out.is_subsequence_of(self.seq)
            and grp.index(out.sigma()) == target
        ):
            raise WitnessCheckFailed(
                f"witness {out!r} for {g} at length {length} does not re-verify"
            )
        return out


def _forward_layers(
    seq: Sequence, terms: list[int], lmax: int
) -> list[list[frozenset[int]]]:
    """DP layers for every prefix of ``terms``; entry [i][l] is the set of
    sums of length-l subsequences drawn from the first i terms."""
    grp = seq.group
    add = grp.add_index_table()
    zero = grp.index(grp.zero)
    cur: list[set[int]] = [set() for _ in range(lmax + 1)]
    cur[0].add(zero)
    history = [ [frozenset(s) for s in cur] ]
    for t in terms:
        row = add[t]
        for l in range(min(lmax, len(history)), 0, -1):
            cur[l].update(row[r] for r in cur[l - 1])
        history.append([frozenset(s) for s in cur])
    return history


def restricted_sums(seq: Sequence, lmin: int, lmax: int) -> frozenset[Elem]:
    """The set of sums over subsequences T | S with lmin <= |T| <= lmax.

    lmin = 0 admits the empty subsequence, so the set then contains 0.
    """
    if not 0 <= lmin <= lmax <= len(seq):
        raise InvalidRange(
            f"need 0 <= lmin <= lmax <= |S| = {len(seq)}, got [{lmin}, {lmax}]"
        )
    return SumTable(seq, lmax).sums(lmin, lmax)


def subsequence_sums(seq: Sequence) -> frozenset[Elem]:
    """All sums of nonempty subsequences."""
    if len(seq) == 0:
        return frozenset()
    return restricted_sums(seq, 1, len(seq))


def _has_zero_sum_up_to(seq: Sequence, lmax: int) -> bool:
    """0 in the union of layers 1..lmax, with early exit."""
    grp = seq.group
    add = grp.add_index_table()
    neg = grp.neg_index_table()
    zero = grp.index(grp.zero)
    reach: list[set[int]] = [set() for _ in range(lmax + 1)]
    reach[0].add(zero)
    for g in seq:
        t = grp.index(g)
        nt = neg[t]
        # a new zero-sum must use this term: -t reachable at some length < lmax
        if any(nt in reach[l] for l in range(lmax)):
            return True
        row = add[t]
        for l in range(lmax, 0, -1):
            reach[l].update(row[r] for r in reach[l - 1])
    return False


def is_zero_sum_free(seq: Sequence) -> bool:
    """True iff no nonempty subsequence sums to zero."""
    if len(seq) == 0:
        return True
    return not _has_zero_sum_up_to(seq, len(seq))


def is_minimal_zero_sum(seq: Sequence) -> bool:
    """Zero-sum with no proper nontrivial zero-sum subsequence.

    The empty sequence is zero-sum but, by convention, not minimal.
    """
    if len(seq) == 0 or not seq.is_zero_sum():
        return False
    if len(seq) == 1:
        return True
    return not _has_zero_sum_up_to(seq, len(seq) - 1)


def find_zero_sum_subsequence(seq: Sequence, exact_length: int) -> Sequence | None:
    """A zero-sum subsequence of the given exact length, or None.

    The returned witness is re-verified before being handed back (divides
    the input, has the requested length, sums to zero); a failure raises
    WitnessCheckFailed, also under ``python -O``.
    """
    if not 1 <= exact_length <= len(seq):
        raise InvalidRange(
            f"exact_length must be in [1, {len(seq)}], got {exact_length}"
        )
    table = SumTable(seq, exact_length)
    return table.witness(seq.group.zero, exact_length)
