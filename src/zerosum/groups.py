"""Arithmetic for G = (Z/nZ) x (Z/nZ): elements, bases, automorphisms.

Elements are plain ``(a, b)`` tuples reduced mod n.  A :class:`Group` carries
the modulus together with lazily built lookup tables (index arithmetic,
automorphism permutation matrix) that the search code leans on.  Tables are
sized for desk-scale moduli; nothing here is meant for n beyond a few dozen.

numpy is imported by the first permutation table build and bound to the
module global ``np``, where ``sequences`` and ``enumeration`` find it once a
table exists; a run that builds no table, such as a cache hit, never loads it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from math import gcd

from .errors import NotABasis

Elem = tuple[int, int]

__all__ = ["Elem", "Group", "Automorphism"]

np = None  # numpy, bound by the first perm_table build


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

    @property
    def det(self) -> int:
        return (self.p * self.s - self.q * self.r) % self.n


class Group:
    """The group (Z/nZ) x (Z/nZ) for a fixed modulus n >= 2."""

    __slots__ = (
        "n", "_elements", "_max_order", "_aut", "_perm", "_add_idx", "_neg_idx", "_orbits",
        "_inverse",
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
        self._orbits: tuple[list[int], np.ndarray, list[list[int]]] | None = None
        self._inverse: np.ndarray | None = None

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

    def contains(self, g: Elem) -> bool:
        return (
            isinstance(g, tuple) and len(g) == 2
            and all(isinstance(c, int) and 0 <= c < self.n for c in g)
        )

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

    def discrete_log(self, g: Elem, h: Elem) -> int | None:
        """Least x >= 0 with x*g == h, or None if h is outside <g>."""
        acc = self.zero
        for x in range(self.element_order(g)):
            if acc == h:
                return x
            acc = self.add(acc, g)
        return None

    def cyclic_subgroup(self, g: Elem) -> tuple[Elem, ...]:
        out = []
        acc = self.zero
        for _ in range(self.element_order(g)):
            out.append(acc)
            acc = self.add(acc, g)
        return tuple(sorted(out))

    # -- automorphisms -------------------------------------------------------

    def automorphisms(self) -> tuple[Automorphism, ...]:
        """All of GL(2, Z/nZ), by scanning the n^4 matrices for unit
        determinant.  Cached; fine for the small moduli used here."""
        if self._aut is None:
            n = self.n
            auts = []
            for p in range(n):
                for q in range(n):
                    for r in range(n):
                        for s in range(n):
                            if gcd((p * s - q * r) % n, n) == 1:
                                auts.append(Automorphism(n, p, q, r, s))
            self._aut = tuple(auts)
        return self._aut

    def random_automorphism(self, rng: random.Random) -> Automorphism:
        """Uniform over GL(2, Z/nZ) by rejection; does not build the full list."""
        n = self.n
        while True:
            p, q, r, s = (rng.randrange(n) for _ in range(4))
            if gcd((p * s - q * r) % n, n) == 1:
                return Automorphism(n, p, q, r, s)

    # -- index encoding (hot paths) -----------------------------------------

    def index(self, g: Elem) -> int:
        return g[0] * self.n + g[1]

    def unindex(self, i: int) -> Elem:
        return divmod(i, self.n)

    def add_index_table(self) -> list[list[int]]:
        """ADD[i][j] = index of element i + element j."""
        if self._add_idx is None:
            n, sz = self.n, self.size
            tbl = []
            for i in range(sz):
                a, b = divmod(i, n)
                row = [0] * sz
                for j in range(sz):
                    c, d = divmod(j, n)
                    row[j] = ((a + c) % n) * n + (b + d) % n
                tbl.append(row)
            self._add_idx = tbl
        return self._add_idx

    def neg_index_table(self) -> list[int]:
        if self._neg_idx is None:
            n = self.n
            self._neg_idx = [((-a) % n) * n + (-b) % n for a, b in self.elements()]
        return self._neg_idx

    def perm_table(self) -> np.ndarray:
        """Automorphisms as index permutations, shape (|Aut|, n^2), int16.

        Row order matches :meth:`automorphisms`.
        """
        if self._perm is None:
            global np
            if np is None:
                import numpy as np
            n = self.n
            # int32 is exact: every intermediate is below 2n^2
            auts = np.array([(al.p, al.q, al.r, al.s) for al in self.automorphisms()],
                            dtype=np.int32)
            p, q, r, s = auts.T[:, :, None]  # matrix entries, one column each
            a, b = np.divmod(np.arange(self.size, dtype=np.int32), n)
            self._perm = ((p * a + q * b) % n * n + (r * a + s * b) % n).astype(np.int16)
        return self._perm

    def orbit_tables(self) -> tuple[list[int], np.ndarray, list[list[int]]]:
        """``(orbit_min, order, bounds)``, built on first use.

        ``orbit_min[x]`` is the least index in the automorphism orbit of
        element index x.  ``order[x]`` lists the rows of :meth:`perm_table`
        sorted by the image of x, so the point transversal
        ``{alpha : alpha(x) = y}`` is ``order[x, bounds[x][y]:bounds[x][y + 1]]``.
        """
        if self._orbits is None:
            perm = self.perm_table()
            rows = np.int16 if len(perm) <= np.iinfo(np.int16).max else np.int32
            order = np.empty((self.size, len(perm)), dtype=rows)
            edges = np.arange(self.size + 1)
            bounds = []
            # column by column, so no |Aut| x n^2 int64 temporary is built
            for x in range(self.size):
                order[x] = perm[:, x].argsort()
                bounds.append(np.searchsorted(perm[order[x], x], edges).tolist())
            self._orbits = (perm.min(axis=0).tolist(), order, bounds)
        return self._orbits

    def inverse_rows(self) -> np.ndarray:
        """``inverse_rows()[a]`` is the row of :meth:`perm_table` that holds
        the inverse of the automorphism in row a; same dtype as ``order``."""
        if self._inverse is None:
            n, auts = self.n, self.automorphisms()
            row = {(al.p, al.q, al.r, al.s): i for i, al in enumerate(auts)}
            inverse = []
            for al in auts:
                d = pow(al.det, -1, n)
                inverse.append(row[(al.s * d % n, -al.q * d % n, -al.r * d % n, al.p * d % n)])
            self._inverse = np.array(inverse, dtype=self.orbit_tables()[1].dtype)
        return self._inverse

    def transversal(self, x: int, y: int) -> slice:
        """The point transversal ``{alpha : alpha(x) = y}``, as a slice of the
        flattened ``order`` table of :meth:`orbit_tables`."""
        _, order, bounds = self.orbit_tables()
        base = x * order.shape[1]
        return slice(base + bounds[x][y], base + bounds[x][y + 1])

    def rows_through(self, terms: list[int], y: int) -> np.ndarray:
        """Rows of :meth:`perm_table` that send some term of the index tuple
        ``terms`` to ``y``, each automorphism once (it sends only one
        element to ``y``)."""
        order = self.orbit_tables()[1].ravel()
        return np.concatenate([order[self.transversal(x, y)] for x in dict.fromkeys(terms)])

    def images_through(self, terms: list[int], y: int) -> np.ndarray:
        """Sorted images of the index tuple ``terms``, one row per
        automorphism of :meth:`rows_through`: exactly the images that
        contain ``y``.
        """
        rows = self.rows_through(terms, y)  # builds the tables on first use
        images = self._perm.take(rows, axis=0)[:, terms]
        images.sort(axis=1)
        return images


@functools.lru_cache(maxsize=None)
def group(n: int) -> Group:
    """Shared Group instance per modulus, so lookup tables are built once."""
    return Group(n)
