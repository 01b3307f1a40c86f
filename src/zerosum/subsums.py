"""Length-restricted subsequence sums on bitset layers.

A layer is a set of group elements held in an int: bit i is set iff the
element of flat index i = a*n + b is in it.  ``translate(X, t)`` is X + t:
bit x of X is bit x + t of the result.  Appending a term t to a sequence
updates its layers by ``step``, ``layers[l] |= translate(layers[l - 1], t)``
for l descending, so that t is used at most once.  From {0} in layer 0 and
empty layers above, layer l holds the sums of length exactly l; from {0} in
every layer, the sums of length at most l.  With no length bound one layer
of all sums suffices: ``sums |= translate(sums, t)``.

``ZeroSumGuard(grp, k)`` is the one implementation of "no nonempty zero-sum
subsequence of length <= k" (k = None: any length; k = 0: no constraint),
shared by the orderly search and the checks here.  Its state holds the
layers N_0, ..., N_{k-1}, N_l the negated sums of length <= l, the empty
sum included, so that appending t is ``N_l | translate(N_{l-1}, -t)`` and
the terms that would close an offender are the one int ``blocked(state)``:
a new zero-sum must end at the added term t, which closes one iff -t is a
sum of the others, i.e. t is in N_{k-1}.  With no length bound, the state
is the one layer of all negated sums.

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


@functools.lru_cache(maxsize=None)
def translations(n: int) -> tuple[tuple[int, ...], ...]:
    """Per element index t = a*n + b, the constants ``translate`` unpacks."""
    size = n * n
    full = (1 << size) - 1
    out = []
    for t in range(size):
        a, b = divmod(t, n)
        low = sum(((1 << (n - b)) - 1) << (row * n) for row in range(n))
        out.append((low, full ^ low, b, n - b, a * n, size - a * n, full))
    return tuple(out)


def translate(layer: int, shift: tuple[int, ...]) -> int:
    """The set ``layer + t`` for ``shift = translations(n)[t]``: each row
    (fixed first coordinate) is rotated by b, then the rows by a."""
    low, high, b, n_b, k, size_k, full = shift
    x = (layer & low) << b | (layer & high) >> n_b
    return (x << k | x >> size_k) & full


@functools.lru_cache(maxsize=None)
def word_shifts(n: int) -> tuple:
    """Per term t, ``translate`` by -t = (a', b') on words: word a of the
    result is word a - a' rotated left by b'; (source words, b', n - b')."""
    np, shifts = groups.numpy(), translations(n)
    minus = [shifts[(-(t // n) % n) * n + -t % n] for t in range(n * n)]
    rot = np.array([b for _, _, b, *_ in minus], dtype=np.min_scalar_type((1 << n) - 1))
    return np.array([[(a - k // n) % n for a in range(n)] for *_, k, _, _ in minus]), rot, n - rot


def step(layers: list[int], shift: tuple[int, ...], top: int) -> list[int]:
    """The layers once the term t of ``shift`` is appended to the sequence
    behind them: ``layers[l] | (layers[l - 1] + t)`` for l = 1, ..., top."""
    out = list(layers)
    for l in range(top, 0, -1):
        out[l] |= translate(out[l - 1], shift)
    return out


class ZeroSumGuard:
    """No nonempty zero-sum subsequence of length <= k (see the module
    docstring).  A state is an int for k = None, else a list of k layers,
    layer l holding the negated sums of length <= l."""

    __slots__ = ("k", "n", "neg", "shifts")

    def __init__(self, grp: Group, k: int | None = None):
        self.k = k
        self.n = grp.n
        self.neg = grp.neg_index_table()
        self.shifts = translations(grp.n)

    def fresh(self):
        return 1 if self.k is None else [1] * self.k

    def extend(self, state, t: int):
        """The state once one copy of the term of index t is appended:
        ``step`` by -t, or one translate with no bound."""
        shift = self.shifts[self.neg[t]]
        if self.k is None:
            return state | translate(state, shift)
        return step(state, shift, self.k - 1)

    def blocked(self, state) -> int:
        """The terms whose append would close a zero-sum of length <= k."""
        if self.k is None:
            return state
        return state[-1] if self.k else 0

    def fresh_rows(self, count: int):
        """``count`` fresh states as words (module docstring)."""
        np, depth = groups.numpy(), 1 if self.k is None else self.k
        layers = np.zeros((count, depth, self.n), np.min_scalar_type((1 << self.n) - 1))
        layers[:, :, 0] = 1
        return layers

    def extend_rows(self, layers, terms):
        """``extend`` of each state of a batch of words by one copy of its
        own term, ``terms[i]`` for ``layers[i]``."""
        np, (count, depth, n) = groups.numpy(), layers.shape
        source, rot, unrot = word_shifts(n)
        low = int(self.k is not None)  # layer 0 of a bounded state is {0}
        # word a of layer l of state i is flat word (i depth + l) n + a
        index = source[terms] + np.arange(count)[:, None] * (depth * n)
        words = layers.take(index[:, None] + np.arange(0, (depth - low) * n, n)[:, None])
        rot, unrot = rot[terms][:, None, None], unrot[terms][:, None, None]
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


def forward_layers(grp: Group, terms: list[int], lmax: int) -> list[list[int]]:
    """Layers for every prefix of the index list ``terms``; entry [i][l] is
    the layer of sums of length-l subsequences drawn from the first i terms."""
    shifts = translations(grp.n)
    cur = [1] + [0] * lmax  # element index 0 is the zero
    history = [cur]
    for i, t in enumerate(terms, 1):
        cur = step(cur, shifts[t], min(lmax, i))
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
    grp = seq.group
    union = 0
    for layer in forward_layers(grp, [grp.index(g) for g in seq], lmax)[-1][lmin:]:
        union |= layer
    return frozenset(grp.unindex(i) for i in range(grp.size) if union >> i & 1)


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
    steps = [terms[:, j] for j, c in enumerate(mults) for _ in range(min(c, k))]
    for i, t in enumerate(steps, 1):
        found |= (layers[rows, -1, t // n] >> (t % n) & 1).astype(bool)  # blocked bit t
        if i < len(steps):  # the last copy needs no update after its test
            layers = guard.extend_rows(layers, t)
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
    zero = grp.index(grp.zero)
    terms = [grp.index(g) for g in seq]  # sorted by element
    history = forward_layers(grp, terms, exact_length)
    if not history[-1][exact_length] >> zero & 1:
        return None
    add = grp.add_index_table()
    neg = grp.neg_index_table()
    # walk the prefix layers back; no parent pointers are kept
    picked: list[int] = []
    need, l = zero, exact_length
    for i in range(len(terms), 0, -1):
        t = terms[i - 1]
        # prefer skipping the term; deterministic because terms are sorted
        if history[i - 1][l] >> need & 1:
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
