"""Finite multisets ("sequences") over (Z/nZ)^2.

A Sequence is an unordered multiset of group elements, stored as a sorted
tuple of (element, multiplicity) pairs.  Term order never matters; two
sequences are equal iff their multiplicity maps agree.

The JSON form (``to_json_obj``/``from_json_obj``) is::

    {"n": 5, "terms": [[0, 1, 4], [1, 0, 4], [1, 1, 1]]}

with terms sorted by element, multiplicities >= 1, and no duplicate
elements.  Parsing is strict; anything off-shape raises SchemaError.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from . import groups
from .errors import NotASubsequence, SchemaError
from .groups import Elem, Group, group

__all__ = ["Sequence"]


class Sequence:
    """Immutable multiset of elements of a fixed Group."""

    __slots__ = ("group", "_items", "_len", "_hash", "_counts")

    def __init__(self, grp: Group, items: Iterable[tuple[Elem, int]]):
        n = grp.n
        merged: dict[Elem, int] = {}
        get = merged.get
        for (a, b), mult in items:
            if not isinstance(mult, int) or mult < 0:
                raise ValueError(f"multiplicity must be a nonnegative int, got {mult!r}")
            if mult == 0:
                continue
            g = (a % n, b % n)
            merged[g] = get(g, 0) + mult
        self.group = grp
        self._items: tuple[tuple[Elem, int], ...] = tuple(sorted(merged.items()))
        self._len = sum(merged.values())
        self._hash: int | None = None
        self._counts: dict[Elem, int] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_terms(cls, grp: Group, terms: Iterable[Elem]) -> "Sequence":
        return cls(grp, ((g, 1) for g in terms))

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sequence)
            and other.group == self.group
            and other._items == self._items
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.group.n, self._items))
        return self._hash

    def __iter__(self) -> Iterator[Elem]:
        """Iterate terms with multiplicity, in element order."""
        for g, mult in self._items:
            for _ in range(mult):
                yield g

    def __repr__(self) -> str:
        body = " ".join(f"{g}^{m}" if m > 1 else f"{g}" for g, m in self._items)
        return f"<Seq n={self.group.n} len={self._len} {body or 'empty'}>"

    # -- accessors ---------------------------------------------------------------

    def items(self) -> tuple[tuple[Elem, int], ...]:
        """(element, multiplicity) pairs in element order."""
        return self._items

    def multiplicity(self, g: Elem) -> int:
        if self._counts is None:
            self._counts = dict(self._items)
        return self._counts.get(self.group.element(*g), 0)

    def support(self) -> tuple[Elem, ...]:
        return tuple(g for g, _ in self._items)

    def sigma(self) -> Elem:
        """Sum of all terms."""
        a = b = 0
        for (x, y), m in self._items:
            a += x * m
            b += y * m
        n = self.group.n
        return (a % n, b % n)

    def is_zero_sum(self) -> bool:
        return self.sigma() == self.group.zero

    # -- multiset algebra ----------------------------------------------------------

    def is_subsequence_of(self, other: "Sequence") -> bool:
        if other.group != self.group:
            return False
        return all(other.multiplicity(g) >= m for g, m in self._items)

    def remove(self, sub: "Sequence") -> "Sequence":
        """Multiset difference self - sub; raises NotASubsequence if sub does
        not divide self."""
        if sub.group != self.group:
            raise NotASubsequence("sequences live over different groups")
        counts = dict(self._items)
        for g, m in sub._items:
            have = counts.get(g, 0)
            if have < m:
                raise NotASubsequence(f"term {g} has multiplicity {have} < {m}")
            counts[g] = have - m
        return Sequence(self.group, counts.items())

    def apply_hom(self, f: Callable[[Elem], Elem]) -> "Sequence":
        """Termwise image under f, in the same group."""
        return Sequence(self.group, ((f(g), m) for g, m in self._items))

    # -- symmetry ----------------------------------------------------------------

    def canonicalize(self) -> "Sequence":
        """Least sequence in the automorphism orbit.

        The order is lexicographic on the expanded, sorted term tuple.  Every
        image starts with the least image of some term, so the orbit minimum
        starts with m, the smallest orbit minimum over the terms, and only
        the automorphisms sending a term onto m are compared: the rows of
        :meth:`Group.orbit_tables` of the terms whose orbit minimum is m,
        no row twice (a row sends one element to m).  Uses the group's
        permutation table, so it is intended for small moduli.
        """
        if not self._items:
            return self
        grp = self.group
        orbit_min, order, start = grp.orbit_tables()
        idxs = [grp.index(g) for g in self]
        least = min(orbit_min[x] for x in idxs)
        rows = [order[start[x]:start[x + 1]] for x in dict.fromkeys(idxs) if orbit_min[x] == least]
        images = grp.perm_table()[groups.np.concatenate(rows)[:, None], idxs]
        images.sort(axis=1)
        best = images[groups.np.lexsort(images.T[::-1])[0]]
        return Sequence.from_terms(grp, (grp.unindex(int(i)) for i in best))

    # -- JSON form ---------------------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.group.n,
            "terms": [[g[0], g[1], m] for g, m in self._items],
        }

    @classmethod
    def from_json_obj(cls, obj: object) -> "Sequence":
        if not isinstance(obj, dict):
            raise SchemaError("sequence must be a JSON object")
        extra = set(obj) - {"n", "terms"}
        if extra:
            raise SchemaError(f"unexpected keys: {sorted(extra)}")
        n = obj.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise SchemaError(f"'n' must be an integer >= 2, got {n!r}")
        terms = obj.get("terms")
        if not isinstance(terms, list):
            raise SchemaError("'terms' must be a list")
        grp = group(n)
        items: list[tuple[Elem, int]] = []
        prev: Elem | None = None
        for entry in terms:
            if (
                not isinstance(entry, list) or len(entry) != 3
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
            ):
                raise SchemaError(f"term must be [a, b, multiplicity], got {entry!r}")
            a, b, m = entry
            if not (0 <= a < n and 0 <= b < n):
                raise SchemaError(f"element ({a}, {b}) out of range for n={n}")
            if m < 1:
                raise SchemaError(f"multiplicity must be >= 1, got {m}")
            g = (a, b)
            if prev is not None and g <= prev:
                raise SchemaError("terms must be sorted by element with no duplicates")
            prev = g
            items.append((g, m))
        return cls(grp, items)
