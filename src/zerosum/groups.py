"""Arithmetic for G = (Z/nZ) x (Z/nZ): elements, bases, automorphisms.

Elements are plain ``(a, b)`` tuples reduced mod n.  A :class:`Group` carries
the modulus together with lazily built lookup tables that the search code
leans on: index arithmetic, the automorphisms as index permutations and
their inverses, for each element the automorphisms that send it to its
orbit minimum, and per automorphism alpha the bitsets {g : alpha(g) < x}
of the search's counting rule.  GL(2, Z/nZ) is enumerated once, by
:meth:`Group.perm_table`; the other automorphism tables read its rows.
Tables are sized for desk-scale moduli; nothing here is meant for n beyond
a few dozen.

numpy is imported by :func:`numpy` on first use (a table build or a search)
and bound to the module global ``np``; a run that builds no table and
searches nothing, such as a cache hit, never loads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

from .errors import NotABasis

Elem = tuple[int, int]

__all__ = ["Elem", "Group", "Automorphism"]

np = None  # numpy, bound by the first call of numpy()


def numpy():
    """numpy, imported and bound to ``np`` by the first call."""
    global np
    if np is None:
        import numpy as np
    return np


@dataclass(frozen=True, order=True)
class Automorphism:
    """An invertible linear map on (Z/nZ)^2.

    Stored as the matrix [[p, q], [r, s]]; acts by
    ``(a, b) -> (p*a + q*b, r*a + s*b) mod n``.
    """

    n: int
    p: int
    q: int
    r: int
    s: int

    def __call__(self, g: Elem) -> Elem:
        a, b = g
        return ((self.p * a + self.q * b) % self.n, (self.r * a + self.s * b) % self.n)


class Group:
    """The group (Z/nZ) x (Z/nZ) for a fixed modulus n >= 2."""

    __slots__ = (
        "n", "_elements", "_max_order", "_aut", "_perm", "_add_idx", "_neg_idx", "_orbits",
        "_inverse", "_below",
    )

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {n!r}")
        self.n = n
        self._elements: tuple[Elem, ...] | None = None
        self._max_order: tuple[Elem, ...] | None = None
        self._aut: tuple[Automorphism, ...] | None = None
        self._perm: np.ndarray | None = None
        self._add_idx: list[list[int]] | None = None
        self._neg_idx: list[int] | None = None
        self._orbits: tuple[list[int], np.ndarray, np.ndarray] | None = None
        self._inverse: np.ndarray | None = None
        self._below: np.ndarray | None = None

    # -- identity and comparison ------------------------------------------

    def __repr__(self) -> str:
        return f"Group({self.n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Group", self.n))

    # -- element arithmetic ------------------------------------------------

    @property
    def zero(self) -> Elem:
        return (0, 0)

    @property
    def size(self) -> int:
        return self.n * self.n

    def element(self, a: int, b: int) -> Elem:
        return (a % self.n, b % self.n)

    def elements(self) -> tuple[Elem, ...]:
        """All n^2 elements in lexicographic order."""
        if self._elements is None:
            n = self.n
            self._elements = tuple((a, b) for a in range(n) for b in range(n))
        return self._elements

    def add(self, g: Elem, h: Elem) -> Elem:
        return ((g[0] + h[0]) % self.n, (g[1] + h[1]) % self.n)

    def neg(self, g: Elem) -> Elem:
        return ((-g[0]) % self.n, (-g[1]) % self.n)

    def sub(self, g: Elem, h: Elem) -> Elem:
        return ((g[0] - h[0]) % self.n, (g[1] - h[1]) % self.n)

    def scale(self, k: int, g: Elem) -> Elem:
        return ((k * g[0]) % self.n, (k * g[1]) % self.n)

    def element_order(self, g: Elem) -> int:
        """Order of g, i.e. n / gcd(n, a, b)."""
        return self.n // gcd(self.n, g[0], g[1])

    def max_order_elements(self) -> tuple[Elem, ...]:
        """Elements of the maximal order n, in lexicographic order."""
        if self._max_order is None:
            n = self.n
            self._max_order = tuple(g for g in self.elements() if self.element_order(g) == n)
        return self._max_order

    # -- bases and coordinates ----------------------------------------------

    def is_unit(self, u: int) -> bool:
        return gcd(u % self.n, self.n) == 1

    def det(self, e1: Elem, e2: Elem) -> int:
        return (e1[0] * e2[1] - e1[1] * e2[0]) % self.n

    def is_basis(self, e1: Elem, e2: Elem) -> bool:
        """True iff (e1, e2) generates the group.

        Equivalent to the determinant of the 2x2 coordinate matrix being a
        unit mod n; symmetric in the two arguments.
        """
        return self.is_unit(self.det(e1, e2))

    def require_basis(self, e1: Elem, e2: Elem) -> None:
        if not self.is_basis(e1, e2):
            raise NotABasis(f"({e1}, {e2}) is not a basis of (Z/{self.n}Z)^2")

    def coords_in_basis(self, g: Elem, e1: Elem, e2: Elem) -> tuple[int, int]:
        """Solve g = x*e1 + y*e2; requires (e1, e2) to be a basis."""
        self.require_basis(e1, e2)
        n = self.n
        dinv = pow(self.det(e1, e2), -1, n)
        # inverse of the column matrix [e1 e2]
        x = (dinv * (e2[1] * g[0] - e2[0] * g[1])) % n
        y = (dinv * (-e1[1] * g[0] + e1[0] * g[1])) % n
        return (x, y)

    def cyclic_subgroup(self, g: Elem) -> tuple[Elem, ...]:
        out = []
        acc = self.zero
        for _ in range(self.element_order(g)):
            out.append(acc)
            acc = self.add(acc, g)
        return tuple(sorted(out))

    # -- automorphisms -------------------------------------------------------

    def automorphisms(self) -> tuple[Automorphism, ...]:
        """GL(2, Z/nZ) as :class:`Automorphism` objects, a view of
        :meth:`perm_table` in its row order: row a sends e1, index n, to
        p*n + r and e2, index 1, to q*n + s.  Cached; no search reads it."""
        if self._aut is None:
            n = self.n
            images = self.perm_table()[:, [n, 1]].tolist()
            self._aut = tuple(Automorphism(n, x // n, y // n, x % n, y % n) for x, y in images)
        return self._aut

    # -- index encoding (hot paths) -----------------------------------------

    def index(self, g: Elem) -> int:
        return g[0] * self.n + g[1]

    def unindex(self, i: int) -> Elem:
        return divmod(i, self.n)

    def add_index_table(self) -> list[list[int]]:
        """ADD[i][j] = index of element i + element j."""
        if self._add_idx is None:
            n, elems = self.n, self.elements()
            self._add_idx = [[(a + c) % n * n + (b + d) % n for c, d in elems] for a, b in elems]
        return self._add_idx

    def neg_index_table(self) -> list[int]:
        if self._neg_idx is None:
            n = self.n
            self._neg_idx = [((-a) % n) * n + (-b) % n for a, b in self.elements()]
        return self._neg_idx

    def perm_table(self) -> np.ndarray:
        """GL(2, Z/nZ) as index permutations, shape (|Aut|, n^2), int16.

        The one enumeration of the group: the matrices [[p, q], [r, s]] of
        unit determinant, in lexicographic order of (p, q, r, s).
        """
        if self._perm is None:
            np, n = numpy(), self.n
            # int32 is exact: every intermediate is below 2n^2
            p, q, r, s = np.indices((n,) * 4, dtype=np.int32).reshape(4, -1)
            unit = np.gcd(p * s - q * r, n) == 1
            p, q, r, s = (m[unit, None] for m in (p, q, r, s))  # one column each
            a, b = np.divmod(np.arange(self.size, dtype=np.int32), n)
            self._perm = ((p * a + q * b) % n * n + (r * a + s * b) % n).astype(np.int16)
        return self._perm

    def orbit_tables(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """``(orbit_min, order, start)``, built on first use.

        ``orbit_min[x]`` is the least index in the automorphism orbit of
        element index x, and ``order[start[x]:start[x + 1]]`` lists, in row
        order, the rows of :meth:`perm_table` that send x to it: {alpha :
        alpha(x) = orbit_min[x]}, as many as fix orbit_min[x].  So an orbit
        holds |Aut| rows, and as the orbits are the element orders,
        ``order`` holds d(n) |Aut| rows, d(n) the number of divisors of n.
        """
        if self._orbits is None:
            perm = self.perm_table()
            orbit_min = perm.min(axis=0)
            x, rows = (perm == orbit_min).T.nonzero()  # by x, then by row
            dtype = np.int16 if len(perm) <= np.iinfo(np.int16).max else np.int32
            start = np.searchsorted(x, np.arange(self.size + 1))
            self._orbits = (orbit_min.tolist(), rows.astype(dtype), start)
        return self._orbits

    def inverse_table(self) -> np.ndarray:
        """Entry ``[a, y]`` is alpha^-1(y), alpha the automorphism in row a
        of :meth:`perm_table`; same shape and dtype."""
        if self._inverse is None:
            perm = self.perm_table()
            inverse, rows = np.empty_like(perm), np.arange(len(perm))
            # column by column, as in below_sets: alpha(x) = y puts x at [a, y]
            for x in range(self.size):
                inverse[rows, perm[:, x]] = x
            self._inverse = inverse
        return self._inverse

    def below_sets(self) -> np.ndarray:
        """Bitsets of element indices, shape (|Aut|, n^2 + 1, W): entry
        ``[a, x]`` is {g : alpha(g) < x} for x < n^2 and ``[a, n^2]`` is
        {g : alpha(g) < g}, alpha the automorphism in row a of
        :meth:`perm_table`.  A set is W = ceil(n^2 / 64) little-endian
        64-bit words, g bit g % 64 of word g // 64."""
        if self._below is None:
            perm, size = self.perm_table(), self.size
            table = np.zeros((len(perm), size + 1, -(-size // 64)), dtype="<u8")
            words, flat = table.shape[2], table.reshape(-1)
            base = np.arange(len(perm)) * table[0].size + words
            # Column x + 1 gets the g with alpha(g) = x, one g at a time, so no
            # |Aut| x n^2 index array is built; the prefix OR then makes it
            # {g : alpha(g) <= x}.  Column n^2 is overwritten after.
            for g in range(size):
                flat[base + perm[:, g] * words + g // 64] = np.uint64(1 << g % 64)
            body = table[:, 1:size]
            np.bitwise_or.accumulate(body, axis=1, out=body)
            fixing = np.packbits(perm < np.arange(size, dtype=perm.dtype), axis=1, bitorder="little")
            table[:, size] = 0
            table[:, size].view(np.uint8)[:, :fixing.shape[1]] = fixing
            self._below = table
        return self._below


@functools.lru_cache(maxsize=None)
def group(n: int) -> Group:
    """Shared Group instance per modulus, so lookup tables are built once."""
    return Group(n)
