"""Length-restricted subsequence sums on packed bitset layers.

A layer is a set of group elements in n^2 bits: bit i is set iff the
element of flat index i = a*n + b is in it.  A state holds all its layers
in one int, layer l in bits [l n^2, (l + 1) n^2).  ``translate(X, t)`` is
X + t on every layer at once, in one pass of masks and shifts: each row
(fixed first coordinate) is rotated by b, then the rows of each layer by a.
Appending a term t to a sequence is one translate,
``(X | translate(X, t) << n^2) & mask``: layer l takes layer l - 1 + t, so
that t is used at most once, layer 0 stays as it is and the mask drops what
passes the top layer.  From {0} in layer 0 and empty layers above, layer l
holds the sums of length exactly l; from {0} in every layer, the sums of
length at most l.  With no length bound one layer of all sums suffices:
``X | translate(X, t)``.  ``translations(n, layers)`` keeps one table of
masks per n, sized to the most layers asked so far: a longer mask costs
nothing, as ``x & mask`` runs over the shorter operand.

``ZeroSumGuard(grp, k)`` is the one implementation of "no nonempty zero-sum
subsequence of length <= k" (k = None: any length; k = 0: no constraint),
shared by the orderly search and the checks here.  Its int state packs the
k layers N_0, ..., N_{k-1}, N_l the negated sums of length <= l, the empty
sum included, so that appending t is the append above by -t and the terms
that would close an offender are its top layer, ``blocked(state)``: a new
zero-sum must end at the added term t, which closes one iff -t is a sum of
the others, i.e. t is in N_{k-1}.  With no length bound, the state is the
one layer of all negated sums; with k = 0 it has no layer.

The search holds its states as words: ``fresh_rows``, ``extend_rows`` and
``blocked_rows`` take a batch of shape (states, layers, n), word a of a
layer its elements (a, b) as bit b; the translate moves words, rotates bits.

A multiset is checked one copy at a time, by ``_has_zero_sum`` on int
states and by ``_has_zero_sum_rows`` on a batch of words (propbfix item
1): before each copy of t, test bit t of the blocked set, then append the
copy.  Each appends at most k copies of a term, or n with no bound.  A
zero-sum of length <= k holds at most k copies of t, and past k - 1
copies a copy changes no layer (layer l < k takes at most l); with no
bound, copy ord(t) <= n closes one, since N then holds -(ord(t) - 1)t = t.
"""

from __future__ import annotations

import functools

from . import groups
from .errors import InvalidRange, WitnessCheckFailed
from .groups import Elem, Group
from .sequences import Sequence

__all__ = [
    "restricted_sums",
    "subsequence_sums",
    "is_zero_sum_free",
    "is_minimal_zero_sum",
    "find_zero_sum_subsequence",
    "has_short_zero_sum",
    "ZeroSumGuard",
]


_TABLES: dict[int, tuple] = {}  # n -> (layers, table), the most layers asked so far


def translations(n: int, layers: int = 1) -> tuple[tuple[int, ...], ...]:
    """Per element index t = a*n + b, the constants ``translate`` unpacks,
    their masks covering at least ``layers`` layers: the columns below
    n - b and the rest, of every row, and the rows below n - a and the
    rest, of every layer; the n^2 tuples share 4n masks."""
    depth, table = _TABLES.get(n, (0, ()))
    if depth < max(layers, 1):
        size, depth = n * n, max(layers, 1)
        full = (1 << depth * size) - 1
        rows, starts = full // ((1 << n) - 1), full // ((1 << size) - 1)  # bit 0 of rows, layers
        cols = [((1 << n - b) - 1) * rows for b in range(n)]
        blocks = [((1 << (n - a) * n) - 1) * starts for a in range(n)]
        cols, blocks = ([(mask, full ^ mask) for mask in masks] for masks in (cols, blocks))
        table = tuple((*cols[b], b, n - b, *blocks[a], a * n, size - a * n)
                      for a in range(n) for b in range(n))
        _TABLES[n] = depth, table
    return table


def translate(layers: int, shift: tuple[int, ...]) -> int:
    """Every layer of the packed int ``layers`` plus t, for ``shift =
    translations(n, L)[t]`` with L at least its layers: each row (fixed
    first coordinate) is rotated by b, then the rows of each layer by a."""
    low, high, b, n_b, rows, over, k, size_k = shift
    x = (layers & low) << b | (layers & high) >> n_b
    return (x & rows) << k | (x & over) >> size_k


@functools.lru_cache(maxsize=None)
def word_shifts(n: int) -> tuple:
    """Per term t, ``translate`` by -t = (a', b') on words: word a of the
    result is word a - a' rotated left by b'; (source words, b', n - b')."""
    np, shifts = groups.numpy(), translations(n)
    minus = [shifts[(-(t // n) % n) * n + -t % n] for t in range(n * n)]
    rot = np.array([shift[2] for shift in minus], dtype=np.min_scalar_type((1 << n) - 1))
    return np.array([[(a - shift[6] // n) % n for a in range(n)] for shift in minus]), rot, n - rot


class ZeroSumGuard:
    """No nonempty zero-sum subsequence of length <= k (see the module
    docstring).  A state is one int of k layers, layer l holding the
    negated sums of length <= l; one layer of all of them for k = None."""

    __slots__ = ("k", "n", "neg", "shifts", "up", "mask", "top", "start")

    def __init__(self, grp: Group, k: int | None = None):
        depth, size = 1 if k is None else k, grp.size
        self.k = k
        self.n = grp.n
        self.neg = grp.neg_index_table()
        self.shifts = translations(grp.n, depth)
        self.up = 0 if k is None else size  # the one layer takes its own translate
        self.mask = (1 << depth * size) - 1
        self.top = max(depth - 1, 0) * size
        self.start = self.mask // ((1 << size) - 1)  # {0} in every layer

    def fresh(self) -> int:
        return self.start

    def extend(self, state: int, t: int) -> int:
        """The state once one copy of the term of index t is appended: the
        packed append by -t, or one translate with no bound."""
        return (state | translate(state, self.shifts[self.neg[t]]) << self.up) & self.mask

    def blocked(self, state: int) -> int:
        """The terms whose append would close a zero-sum of length <= k."""
        return state >> self.top

    def fresh_rows(self, count: int):
        """``count`` fresh states as words (module docstring)."""
        np, depth = groups.numpy(), 1 if self.k is None else self.k
        layers = np.zeros((count, depth, self.n), np.min_scalar_type((1 << self.n) - 1))
        layers[:, :, 0] = 1
        return layers

    def extend_rows(self, layers, terms):
        """``extend`` of each state of a batch of words by one copy of its
        own term, ``terms[i]`` for ``layers[i]``.  Layer 0 of a bounded
        state is always {0}, so with k <= 1 no layer can change and
        ``layers`` itself is returned."""
        np, (count, depth, n) = groups.numpy(), layers.shape
        low = int(self.k is not None)  # layer 0 of a bounded state is {0}
        if depth <= low:
            return layers
        source, rot, unrot = word_shifts(n)
        # word a of layer l of state i is flat word (i depth + l) n + a
        index = source.take(terms, axis=0) + np.arange(count)[:, None] * (depth * n)
        words = layers.take(index[:, None] + np.arange(0, (depth - low) * n, n)[:, None])
        rot, unrot = rot.take(terms)[:, None, None], unrot.take(terms)[:, None, None]
        out = layers.copy()
        out[:, low:] |= (words << rot | words >> unrot) & ((1 << n) - 1)
        return out

    def blocked_rows(self, layers):
        """``blocked`` of each state of a batch of words, as a bool row."""
        np, n = groups.numpy(), self.n
        if self.k == 0:
            return np.zeros((len(layers), n * n), bool)
        bits = layers[:, -1, :, None] >> np.arange(n, dtype=layers.dtype) & 1
        return bits.reshape(len(layers), -1) > 0


def forward_layers(grp: Group, terms: list[int], lmax: int) -> list[int]:
    """The packed layers of every prefix of the index list ``terms``: layer
    l of entry i is the set of sums of length-l subsequences drawn from the
    first i terms, for l <= lmax."""
    size = grp.size
    shifts, mask = translations(grp.n, lmax + 1), (1 << (lmax + 1) * size) - 1
    cur = 1  # element index 0 is the zero
    history = [cur]
    for t in terms:
        cur = (cur | translate(cur, shifts[t]) << size) & mask
        history.append(cur)
    return history


def restricted_sums(seq: Sequence, lmin: int, lmax: int) -> frozenset[Elem]:
    """The set of sums over subsequences T | S with lmin <= |T| <= lmax.

    lmin = 0 admits the empty subsequence, so the set then contains 0.
    """
    if not 0 <= lmin <= lmax <= len(seq):
        raise InvalidRange(
            f"need 0 <= lmin <= lmax <= |S| = {len(seq)}, got [{lmin}, {lmax}]"
        )
    grp, size = seq.group, seq.group.size
    layers = forward_layers(grp, [grp.index(g) for g in seq], lmax)[-1]
    return frozenset(grp.unindex(i % size)
                     for i in range(lmin * size, (lmax + 1) * size) if layers >> i & 1)


def subsequence_sums(seq: Sequence) -> frozenset[Elem]:
    """All sums of nonempty subsequences."""
    if len(seq) == 0:
        return frozenset()
    return restricted_sums(seq, 1, len(seq))


def _has_zero_sum(grp: Group, pairs: list[tuple[int, int]], k: int | None = None) -> bool:
    """Does some nonempty subsequence of the multiset given by (index,
    multiplicity) pairs, of length <= k (any length for k = None), sum to
    zero?  One copy at a time, at most k (or n) of a term, as the module
    docstring says; exits at the first copy that closes one."""
    guard = ZeroSumGuard(grp, k)
    state, cap = guard.fresh(), grp.n if k is None else k
    for t, c in pairs:
        for _ in range(min(c, cap)):
            if guard.blocked(state) >> t & 1:
                return True
            state = guard.extend(state, t)
    return False


def _has_zero_sum_rows(grp: Group, terms, mults, k: int):
    """``_has_zero_sum`` of a batch, as a bool row: row i is the multiset of
    the indices ``terms[i, j]``, each with multiplicity ``mults[j]``.  It
    runs the word states of the search (``fresh_rows``, ``extend_rows``)
    by the same one-copy rule and cap, reading the one blocked bit per row
    that it needs."""
    np, n, guard = groups.numpy(), grp.n, ZeroSumGuard(grp, k)
    layers, rows = guard.fresh_rows(len(terms)), np.arange(len(terms))
    found = np.zeros(len(terms), bool)
    words, bits = np.divmod(terms, n)  # blocked bit t is bit t % n of word t // n
    steps = [j for j, c in enumerate(mults) for _ in range(min(c, k))]
    for i, j in enumerate(steps, 1):
        found |= (layers[rows, -1, words[:, j]] >> bits[:, j] & 1).astype(bool)
        if i < len(steps):  # the last copy needs no update after its test
            layers = guard.extend_rows(layers, terms[:, j])
    return found


def has_short_zero_sum(seq: Sequence, k: int | None) -> bool:
    """True iff some nonempty subsequence of length at most k (any length
    for k = None) sums to zero; k = 0 admits none, and k < 0 raises
    InvalidRange.  The DP appends one copy at a time (module docstring)."""
    if k is not None and k < 0:
        raise InvalidRange(f"k must be None or >= 0, got {k}")
    grp = seq.group
    return _has_zero_sum(grp, [(grp.index(g), m) for g, m in seq.items()], k)


def is_zero_sum_free(seq: Sequence) -> bool:
    """True iff no nonempty subsequence sums to zero."""
    return not has_short_zero_sum(seq, None)


def is_minimal_zero_sum(seq: Sequence) -> bool:
    """Zero-sum with no proper nontrivial zero-sum subsequence.

    Equivalently, a zero-sum S with S minus one term zero-sum free: of a
    proper zero-sum part and its complement, one avoids that term.  The
    empty sequence is zero-sum but, by convention, not minimal.
    """
    if len(seq) == 0 or not seq.is_zero_sum():
        return False
    grp = seq.group
    pairs = [(grp.index(g), m) for g, m in seq.items()]
    t, c = pairs.pop()
    if c > 1:
        pairs.append((t, c - 1))
    return not _has_zero_sum(grp, pairs)


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
    grp = seq.group
    size, zero = grp.size, grp.index(grp.zero)
    terms = [grp.index(g) for g in seq]  # sorted by element
    history = forward_layers(grp, terms, exact_length)
    if not history[-1] >> exact_length * size + zero & 1:
        return None
    add, neg = grp.add_index_table(), grp.neg_index_table()
    # walk the prefix layers back; no parent pointers are kept
    picked: list[int] = []
    need, l = zero, exact_length
    for i in range(len(terms), 0, -1):
        t = terms[i - 1]
        # prefer skipping the term; deterministic because terms are sorted
        if history[i - 1] >> l * size + need & 1:
            continue
        picked.append(t)
        need = add[need][neg[t]]
        l -= 1
    out = Sequence.from_terms(grp, (grp.unindex(t) for t in picked))
    if not (
        l == 0 and need == zero and len(out) == exact_length
        and out.is_subsequence_of(seq) and out.is_zero_sum()
    ):
        raise WitnessCheckFailed(
            f"witness {out!r} of length {exact_length} does not re-verify"
        )
    return out
