"""Orderly enumeration of sequences, one representative per orbit.

The search walks sorted term tuples (nondecreasing element order) and keeps a
branch only while the partial sequence is the lexicographic minimum of its
automorphism orbit.  Minimality of a sorted tuple is inherited by its
prefixes (the k smallest images of a superset are dominated by the sorted
images of any k-subset), so pruning non-canonical prefixes at every depth is
exhaustive and yields each orbit exactly once, with no post-deduplication.

A predicate is a ZeroSumGuard (no zero-sum of length <= k) plus a flag for
sequences that must sum to zero.  The guard state holds negated sums, so the
candidates of a node are one mask, the terms >= the last one minus
``blocked(state)``, taken in ascending order and cut by reachability; the
orbit test, the expensive step, then decides all of them at once.

The sibling test.  Let P be a canonical node, t0 = P[0], and g >= P[-1] a
candidate, so the child is T = P + [g].  A sorted image alpha(T) starts with
min alpha(T), at least the least orbit minimum of the terms; those of P are
>= t0 (P is canonical), so T is beaten outright when orbit_min[g] < t0.
Otherwise only an automorphism sending a term of T to t0 yields an image
that starts with t0; every other image starts higher.  These are the rows
R_P of the point transversal that send a term of P to t0
(Group.transversal) and, for g not in P, the rows sending g to t0.

Fact: for sorted tuples A, B of equal length, A < B exactly when A has more
copies of c, the least value whose multiplicities differ.  Proof: values
below c occur equally often in both, so A and B agree up to the position p
where those values end; from p on each holds its copies of c and then only
larger values, so at position p + min(copies) the one with fewer copies
shows a value above c while the other still shows c.  With no such c, A = B.

For alpha in R_P, alpha(T) is I = sorted alpha(P) with v = alpha(g) added,
and T is P with g added, so their multiplicities differ by (I - P) + [v] -
[g], where I >= P since P is canonical.
- If I = P, the difference is [v] - [g]: alpha(T) < T iff v < g.
- Otherwise let j be the first index with I[j] != P[j] and x = P[j]
  (I[j] > x).  Below x, I and P agree; at x, P has d more copies, d the
  copies of x in P[j:]; and g >= x.  If v < x, v is the least difference,
  with the extra copy in alpha(T): reject.  If v > x, the least difference
  is x, with d or d + 1 more copies in T: accept.  If v = x, the difference
  at x is 1 - d - [g = x], which leaves a tie only when d = 1 and g != x.
  Then x enters alpha(T) at position j, where T holds x too, so alpha(T) <
  T iff I[j:] < P[j+1:] + [g]: I[j:k-1] against P[j+1:k] decides, and on a
  draw I[k-1] < g.  Each row has one such g, alpha^-1(x).
- So v = g never rejects: both sides gain the same copy.
For a row sending g (not in P) to t0, alpha(T) is t0 followed by sorted
alpha(P), all of whose terms lie above t0.  If t0 occurs twice or more in
P, T is smaller at position 1; otherwise sorted alpha(P) is compared with
P[1:] + [g].

The multiplicity cut.  A row through e (alpha(e) = t0) maps cnt(e) copies
to t0, and every other term above t0; as P is canonical, cnt(e) <= cnt(t0).
If cnt(e) < cnt(t0), then I has fewer copies of t0 than P: j = cnt(e), x =
t0 and d = cnt(t0) - cnt(e).  No candidate has v < t0 (orbit_min[g] >= t0),
so such a row rejects only by a tie, which needs d = 1 and v = t0, that is
g = alpha^-1(t0) = e, a term of P and a candidate, so e = P[-1].  Such a
row maps fewer copies to t0 than T holds, and never beats T otherwise.  So
only the rows through the e with cnt(e) = cnt(t0) are tested, and through
e = P[-1] when cnt(e) = cnt(t0) - 1 and P[-1] is a candidate.  At
davenport(7) this cuts the rows of a tested node from 208 to 92 on average.
A node carries cnt(t0), the copies of its last term (P is sorted, so they
are one run at its end) and the terms of t0's orbit with cnt(e) = cnt(t0);
a child's follow from its parent's and the term it adds, with no rescan.

The test is batched.  The nodes of one depth are cut into chunks of about
_CHUNK_ROWS rows, and one set of array calls decides every candidate of
every node of a chunk.  The rows come from the transversal table; their
images of P are gathered a term at a time and sorted once per row, which
gives each row's j and x.  Over the elements g from the chunk's least
candidate lo on, a row beats g where alpha(g) - x < 0 (alpha(g) - g for a
row fixing P); the least of these over a node's rows marks the candidates
it loses.  A row's tie candidate alpha^-1(x) is read off the row of
alpha^-1 (Group.inverse_rows) and marked when the tie goes against T.  The
marks are packed to bits, one int per node of the candidates it loses.
The rows sending a candidate g to t0, for the candidates left, are batched
the same way, once the arrays of the rows of R_P are freed.  A chunk's
memory is its rows times about 2 (n^2 - lo) bytes for the counting rule
and 6 bytes per term of P for the images, about 160 bytes a row at n = 7,
so the row budget bounds it; the budget is the largest of the
BENCH_17.json sweep that keeps the search benchmark's peak RSS flat.

A search is one walk.  The children of a chunk, lex-sorted as its nodes
are, are walked to the end before the next chunk of their parents' depth,
so leaves and units come out in lex order; the pending children of a depth
are kept as their parents' admitted masks and built a chunk at a time.
With jobs > 1 the walk stops at the first depth with _UNITS_PER_JOB units
per job, and ``fan_out`` completes the subtrees of the admitted nodes
there; each unit is counted once, by its parent, and results are merged in
unit order, so output and node counts are those of the one walk for any
split depth, chunk size and worker count.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from . import __version__, groups
from .errors import BudgetExceeded, CacheUnwritable, SchemaError
from .groups import Group, group
from .sequences import Sequence
from .subsums import ZeroSumGuard, forward_layers

if TYPE_CHECKING:
    import numpy as np  # at run time groups.np, bound by the first table build

__all__ = [
    "EnumSpec",
    "SearchStats",
    "enumerate_leaves",
    "decode_leaves",
    "enumerate_sequences",
    "davenport",
    "s_leq",
    "max_length_with",
    "ResultCache",
    "resolve_cache",
    "DEFAULT_CACHE_DIR",
]

DEFAULT_CACHE_DIR = ".zs-cache"
CACHE_ENV_VAR = "ZS_CACHE"


def _source_digest() -> str:
    """sha256 of the modules whose code decides what a search returns."""
    h = hashlib.sha256()
    for name in ("enumeration.py", "subsums.py", "groups.py", "sequences.py"):
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# any edit to the search source makes every stored entry a miss
CACHE_SCHEMA = f"{__version__}/{_source_digest()[:16]}"

# the files a ResultCache writes: entries, the tmp files of their stores and
# the probe of ensure_writable; purge removes these and nothing else
_CACHE_FILE = re.compile(r"[0-9a-f]{24}\.json(\.[0-9]+\.tmp)?|\.probe-[0-9]+")

_UNITS_PER_JOB = 4
_CACHE_MAX_SEQUENCES = 100_000


# ---------------------------------------------------------------------------
# monotone predicates

# name -> (k of the ZeroSumGuard, "k" when it is the parameter; whether the
# full sequence must sum to zero)
PREDICATES = {
    "all": (0, False),
    "zero-sum-free": (None, False),
    "minimal-zero-sum": (None, True),
    "no-short-zero-sum": ("k", False),
    "zero-sum-no-short": ("k", True),
}


def _compile_predicate(grp: Group, name: str, params: dict) -> tuple[ZeroSumGuard, bool]:
    if name not in PREDICATES:
        raise SchemaError(f"unknown predicate {name!r}; know {sorted(PREDICATES)}")
    k, closes = PREDICATES[name]
    wanted = ("k",) if k == "k" else ()
    if set(params) != set(wanted):
        raise SchemaError(
            f"predicate {name!r} takes params {wanted}, got {sorted(params)}"
        )
    if wanted and params["k"] < 1:
        raise SchemaError(f"k must be >= 1, got {params['k']}")
    return ZeroSumGuard(grp, params.get("k", k)), closes


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: group modulus, exact length, named predicate."""

    n: int
    length: int
    predicate: str
    params: dict = field(default_factory=dict)
    up_to_symmetry: bool = True

    def key(self) -> dict:
        return {
            "op": "enumerate",
            "n": self.n,
            "length": self.length,
            "predicate": self.predicate,
            "params": dict(sorted(self.params.items())),
            "up_to_symmetry": self.up_to_symmetry,
        }


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    max_depth: int = 0

    def merge(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.leaves += other.leaves
        self.max_depth = max(self.max_depth, other.max_depth)


# ---------------------------------------------------------------------------
# reachability cut for runs whose leaves must sum to zero

@functools.lru_cache(maxsize=None)
def _reach_table(grp: Group, max_len: int) -> list[list[int]]:
    """REACH[g][j]: layer of the sums of j elements all >= g, read off the
    layers of max_len copies of each element appended in descending order."""
    terms = [g for g in range(grp.size - 1, -1, -1) for _ in range(max_len)]
    history = forward_layers(grp, terms, max_len)
    return [history[(grp.size - g) * max_len] for g in range(grp.size + 1)]


@functools.lru_cache(maxsize=None)
def _reach_masks(grp: Group, max_len: int) -> list[list[int]]:
    """MASKS[j][s]: the terms g with which a sequence of sum s can still
    close to a zero-sum by j more terms, all >= g: -(s + g) in REACH[g][j]."""
    reach, add, neg = _reach_table(grp, max_len), grp.add_index_table(), grp.neg_index_table()
    return [
        [sum(1 << g for g in range(grp.size) if reach[g][j] >> neg[add[s][g]] & 1)
         for s in range(grp.size)]
        for j in range(max_len)
    ]


# ---------------------------------------------------------------------------
# the batched walk

# A chunk takes nodes of one depth until it holds this many rows of the
# sibling test (nodes, in a search without the test), one node at least.
# The rows bound a chunk's memory (module docstring); 4096 is the largest
# budget of the BENCH_17.json sweep (768 to 8192 rows) that leaves the
# search workload's peak RSS where 768-row chunks have it.
_CHUNK_ROWS = 4096


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b for 2-d arrays of equal shape."""
    d = a - b
    return d[groups.np.arange(len(d)), (d != 0).argmax(axis=1)] < 0


class _Chunk:
    """Nodes of one depth, each a tuple (terms, guard state, sum, cnt(t0),
    cnt(P[-1]), heavy) as ``_Engine._child`` builds it, with their
    candidate masks and, for the sibling test, the segments of the
    transversal table that hold their rows and the row count of each.  For
    the rows sending a candidate g to t0, the entries are the pairs (index
    of the node in its chunk, g) instead."""

    __slots__ = ("depth", "nodes", "cands", "segments", "counts", "rows")

    def __init__(self, depth: int):
        self.depth = depth
        self.nodes, self.cands, self.segments, self.counts, self.rows = [], [], [], [], 0


class _Engine:
    def __init__(
        self,
        grp: Group,
        predicate_name: str,
        params: dict,
        length: int | None,
        up_to_symmetry: bool,
        depth_cap: int | None = None,
    ):
        self.grp = grp
        self.guard, self.closes = _compile_predicate(grp, predicate_name, params)
        self.length = length
        self.canonical = up_to_symmetry
        self.depth_cap = depth_cap
        size = grp.size
        full = (1 << size) - 1
        self.above = [full >> g << g for g in range(size)]  # bits g, g+1, ...
        self.add = grp.add_index_table()
        self.neg = grp.neg_index_table()
        self.reach = (
            _reach_masks(grp, length)
            if (length is not None and self.closes)
            else None
        )
        if up_to_symmetry:
            # built here, before fan_out forks, so that the workers share them
            self.orbit_min, order, _ = grp.orbit_tables()
            self.perm, self.order = grp.perm_table(), order.ravel()
            self.inverse = grp.inverse_rows()
            self.orbit = [0] * size  # bits of the orbit of an orbit minimum
            for g, t in enumerate(self.orbit_min):
                self.orbit[t] |= 1 << g
            # rows_to[t][e]: the rows alpha with alpha(e) = t, t an orbit minimum
            self.rows_to = [
                [grp.transversal(e, t) for e in range(size)] if self.orbit[t] else None
                for t in range(size)
            ]
            self.minima = sum(1 << t for t in range(size) if self.orbit[t])
            # |Stab(t)|, the size of every rows_to[t][e]
            self.stabilizer = [
                r[t].stop - r[t].start if r else 0 for t, r in enumerate(self.rows_to)
            ]
            # bits of the g with orbit_min[g] >= t
            self.not_below = list(itertools.accumulate(reversed(self.orbit), operator.or_))[::-1]
        else:
            self.orbit_min = range(size)  # the orbits of the trivial group

    def run_subtree(
        self, prefix: tuple[int, ...], stop: int | None = None
    ) -> tuple[list[tuple[int, ...]], SearchStats]:
        """Complete the walk below an admitted prefix, counting the nodes
        below it.  With ``stop`` the walk also ends at nodes of that depth
        (below ``length``) and returns them, in lex order, as work units.

        The nodes of one depth are tested a chunk at a time; the children of
        a chunk, lex-sorted, are walked to the end before the next chunk, so
        leaves and units come out in lex order.  A depth's pending children
        are kept as their parents' admitted masks, and are built a chunk at
        a time."""
        prefix = tuple(prefix)
        stats = SearchStats(max_depth=len(prefix))
        if len(prefix) in (self.length, stop):
            stats.leaves = int(len(prefix) == self.length)
            return [prefix], stats
        self._check_depth(len(prefix))
        out: list[tuple[int, ...]] = []
        chunk = _Chunk(len(prefix))
        root = self._node(prefix)
        self._join(chunk, root, self._candidates(root))
        pending = []  # [parents, admitted masks, next parent] per depth
        while True:
            masks = self._admitted(chunk)
            count = sum(m.bit_count() for m in masks)
            depth = chunk.depth + 1
            if count:
                stats.nodes += count
                stats.max_depth = max(stats.max_depth, depth)
                if depth in (self.length, stop):
                    if depth == self.length:
                        stats.leaves += count
                    for node, mask in zip(chunk.nodes, masks):
                        out.extend(node[0] + (g,) for g in _bits(mask))
                else:
                    self._check_depth(depth)
                    parents = [node for node, mask in zip(chunk.nodes, masks) if mask]
                    pending.append([parents, [mask for mask in masks if mask], 0])
            while pending and pending[-1][2] == len(pending[-1][0]):
                pending.pop()
            if not pending:
                return out, stats
            chunk = self._take(pending[-1], len(prefix) + len(pending))

    def _check_depth(self, depth: int) -> None:
        """Nodes of this depth are about to be expanded: raise
        BudgetExceeded at the depth cap."""
        if self.depth_cap is not None and depth >= self.depth_cap:
            raise BudgetExceeded(
                f"search depth cap {self.depth_cap} reached; the maximum may "
                f"be unbounded for this predicate"
            )

    def _take(self, entry: list, depth: int) -> _Chunk:
        """The next chunk of the children that ``entry`` holds, built and
        taken from its masks."""
        parents, masks, i = entry
        chunk = _Chunk(depth)
        while i < len(parents) and chunk.rows < _CHUNK_ROWS:
            mask = masks[i]
            low = mask & -mask
            masks[i] = mask ^ low
            child = self._child(parents[i], low.bit_length() - 1)
            self._join(chunk, child, self._candidates(child))
            if mask == low:
                i += 1
        entry[2] = i
        return chunk

    def _node(self, prefix: tuple[int, ...]) -> tuple:
        """The node of an admitted prefix, built a term at a time."""
        node = ((), self.guard.fresh(), 0, 0, 0, ())
        for g in prefix:
            node = self._child(node, g)
        return node

    def _child(self, node: tuple, g: int) -> tuple:
        """The child T + (g,) of a node T, g >= T[-1], with its counts:
        cnt(t0), the copies of its last term and heavy, the terms of t0's
        orbit as frequent as t0, ascending.  They follow from T's counts and
        g alone; the child is canonical, so no term of t0's orbit outnumbers
        t0 in it."""
        T, state, sigma, copies, run, heavy = node
        if not T:
            copies, run, heavy = 1, 1, (g,) if self.orbit_min[g] == g else ()
        elif g != T[-1]:
            run = 1
            if copies == 1 and self.orbit_min[g] == T[0]:
                heavy += (g,)
        else:
            run += 1
            if g == T[0]:
                copies += 1
            elif run == copies and self.orbit_min[g] == T[0]:
                heavy += (g,)
        return (T + (g,), self.guard.extend(state, g), self.add[sigma][g], copies, run, heavy)

    def _candidates(self, node: tuple) -> int:
        """The mask of the terms g >= T[-1] that the predicate lets extend
        the node."""
        T, state, sigma = node[:3]
        guard, neg = self.guard, self.neg
        blocked = guard.blocked(state)
        last = T[-1] if T else 0
        if self.closes and len(T) + 1 == self.length:
            # The last term is forced by the zero-sum requirement.  With no
            # length bound it is always blocked and never tested: a sorted
            # zero-sum with a zero-sum free prefix is minimal, as a proper
            # zero-sum part can avoid one copy of the largest term and then
            # lies in the prefix.
            g = neg[sigma]
            ok = g >= last and (guard.k is None or not blocked >> g & 1)
            return 1 << g if ok else 0
        mask = self.above[last] & ~blocked
        if self.reach is not None:
            mask &= self.reach[self.length - len(T) - 1][sigma]
        return mask

    def _join(self, chunk: _Chunk, node: tuple, mask: int) -> None:
        """Add the node with the candidates of ``mask`` to the chunk, with
        its rows of the sibling test; a node left with no candidate once
        the orbit minima are cut is dropped."""
        T = node[0]
        if not self.canonical:
            chunk.rows += 1
        elif not T:
            mask &= self.minima
            chunk.rows += 1
        else:
            _, _, _, copies, run, heavy = node
            t0, last = T[0], T[-1]
            mask &= self.not_below[t0]
            if mask:
                # R_P, cut to the rows through a term e as frequent as t0,
                # or one copy short when e = P[-1] is a candidate
                rows_to = self.rows_to[t0]
                chunk.segments.extend([rows_to[e] for e in heavy])
                count = len(heavy)
                if run == copies - 1 and mask >> last & 1 and self.orbit_min[last] == t0:
                    chunk.segments.append(rows_to[last])
                    count += 1
                count *= self.stabilizer[t0]
                chunk.rows += count
                chunk.counts.append(count)
        if mask:
            chunk.nodes.append(node)
            chunk.cands.append(mask)

    def _segment(self, chunk: _Chunk, e: int, t: int) -> int:
        """Add the rows alpha with alpha(e) = t to the chunk; returns their
        number."""
        rows = self.rows_to[t][e]
        chunk.segments.append(rows)
        chunk.rows += rows.stop - rows.start
        return rows.stop - rows.start

    def _images(self, chunk: _Chunk, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The chunk's rows and the sorted images alpha(P[i]) for each row
        alpha and the term row P[i] beside it, gathered a term at a time so
        that no index array of the images' shape is built."""
        np = groups.np
        rows = np.concatenate([self.order[s] for s in chunk.segments])
        base, flat = rows.astype(np.intp), self.perm.ravel()
        base *= self.grp.size
        images = np.empty(P.shape, dtype=np.int16)
        for i in range(P.shape[1]):
            images[:, i] = flat[base + P[:, i]]
        images.sort(axis=1)
        return rows, images

    def _admitted(self, chunk: _Chunk) -> list[int]:
        """The masks of the admitted candidates of the chunk's nodes: the
        sibling test of the module docstring, one set of array calls for
        all of them."""
        if not (self.canonical and chunk.depth and chunk.nodes):
            return chunk.cands
        np, k = groups.np, chunk.depth
        # the terms of each node, then a sentinel
        P = np.array([node[0] + (self.grp.size,) for node in chunk.nodes], dtype=np.int16)
        out = self._test_r_p(chunk, P)
        # rows sending a g not in P to t0, when t0 is single in P, for the
        # candidates left, batched as pairs (node, g) in chunks of their own
        fresh = _Chunk(k)
        for i, node in enumerate(chunk.nodes):
            T = node[0]
            t0 = T[0]
            if k == 1 or T[1] != t0:
                for g in _bits(out[i] & self.orbit[t0] & ~(1 << T[-1])):
                    fresh.nodes.append(i)
                    fresh.cands.append(g)
                    fresh.counts.append(self._segment(fresh, g, t0))
                    if fresh.rows >= _CHUNK_ROWS:
                        self._fresh(P, fresh, out)
                        fresh = _Chunk(k)
        if fresh.rows:
            self._fresh(P, fresh, out)
        return out

    def _test_r_p(self, chunk: _Chunk, P: np.ndarray) -> list[int]:
        """The candidate masks of the chunk's nodes, less the candidates
        that a row of R_P beats; its arrays are freed before the rows
        sending a candidate to t0 are tested."""
        np, size, k = groups.np, self.grp.size, chunk.depth
        terms = P.repeat(chunk.counts, axis=0)  # the terms of each row's node
        rows, images = self._images(chunk, terms[:, :k])
        # the first difference j of each image with P, 0 for a row fixing P
        # (every image starts with t0), and the row's bound x = P[j]
        first = (images != terms[:, :k]).argmax(axis=1)[:, None]
        x = np.take_along_axis(terms, first, axis=1)
        # the g each row beats, from the least candidate lo of the chunk on:
        # alpha(g) - x < 0, or alpha(g) - g < 0 for a row fixing P (x = t0
        # there); the least over each node's rows
        lo = min((mask & -mask).bit_length() - 1 for mask in chunk.cands)
        offsets = list(itertools.accumulate(chunk.counts[:-1], initial=0))
        beats = self.perm[rows, lo:]
        beats -= x
        fixing = (first[:, 0] == 0).nonzero()[0]
        beats[fixing] += x[fixing] - np.arange(lo, size, dtype=np.int16)
        lost = np.minimum.reduceat(beats, offsets, axis=0) < 0
        del beats  # the chunk's largest array, freed before the tie's are made
        # A row's one tie: g = alpha^-1(x), a candidate other than x, with x
        # single in P[j:] and j > 0.  Then alpha(T) < T iff I[j:] < P[j+1:] +
        # [g]: I[j:k-1] against P[j+1:k] decides, and on a draw I[k-1] < g.
        single = (first != 0) & (np.take_along_axis(terms, first + 1, axis=1) != x)
        t = single[:, 0].nonzero()[0]
        x = x[t, 0]
        g = self.perm[self.inverse[rows[t]], x]
        tie = (g >= lo) & (g != x) & (g >= terms[t, k - 1])
        t, g = t[tie], g[tie]
        if len(t):
            I = images[t]
            d = I[:, :k - 1] - terms[t, 1:k]
            d[np.arange(k - 1) < first[t]] = 0
            c = d[np.arange(len(t)), (d != 0).argmax(axis=1)]
            won = (c < 0) | ((c == 0) & (I[:, k - 1] < g))
            lost[np.searchsorted(offsets, t[won], side="right") - 1, g[won] - lo] = True
        lost = np.packbits(lost, axis=1, bitorder="little")
        width, flat = lost.shape[1], lost.tobytes()
        return [
            mask & ~(int.from_bytes(flat[i * width:(i + 1) * width], "little") << lo)
            for i, mask in enumerate(chunk.cands)
        ]

    def _fresh(self, P: np.ndarray, fresh: _Chunk, out: list[int]) -> None:
        """Clear from ``out`` each pair (node i, candidate g) of ``fresh``
        that a row sending g to t0 beats: its image t0 + sorted alpha(P)
        is less than P + [g] when sorted alpha(P) < P[1:] + [g]."""
        np, k = groups.np, fresh.depth
        PF = P[np.array(fresh.nodes).repeat(fresh.counts)]
        _, images = self._images(fresh, PF[:, :k])
        after = PF[:, 1:]
        after[:, -1] = np.array(fresh.cands).repeat(fresh.counts)
        offsets = list(itertools.accumulate(fresh.counts[:-1], initial=0))
        lost = np.logical_or.reduceat(_lex_less(images, after), offsets)
        for i, g, beaten in zip(fresh.nodes, fresh.cands, lost.tolist()):
            if beaten:
                out[i] &= ~(1 << g)


def _bits(mask: int) -> Iterable[int]:
    """The set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


# ---------------------------------------------------------------------------
# parallel fan-out

# The work of the map being fanned out, set before the pool forks so that
# every worker inherits it; a closure or bound method needs no pickling.
_FORKED_WORK = None


def _run_forked(unit):
    return _FORKED_WORK(unit)


def fan_out(work, units: list, jobs: int) -> list:
    """``[work(u) for u in units]``, in unit order.  With jobs > 1 and two
    or more units, the units run in min(jobs, len(units)) forked workers."""
    if jobs <= 1 or len(units) < 2:
        return [work(u) for u in units]
    import multiprocessing

    global _FORKED_WORK
    _FORKED_WORK = work
    try:
        with multiprocessing.get_context("fork").Pool(min(jobs, len(units))) as pool:
            return pool.map(_run_forked, units, chunksize=1)
    finally:
        _FORKED_WORK = None


def _search(
    grp: Group,
    predicate: str,
    params: dict,
    length: int | None,
    up_to_symmetry: bool,
    jobs: int = 1,
    depth_cap: int | None = None,
) -> tuple[list[tuple[int, ...]], SearchStats]:
    """One DFS, cut at the first depth d >= 1 holding _UNITS_PER_JOB * jobs
    units (or at d = length - 1, or where the walk ends) when jobs > 1; the
    root is the one unit otherwise."""
    engine = _Engine(grp, predicate, params, length, up_to_symmetry, depth_cap)
    stop, units, stats = 0, [()], SearchStats()
    while jobs > 1 and units and len(units) < _UNITS_PER_JOB * jobs and stop + 1 != length:
        stop += 1
        units, stats = engine.run_subtree((), stop=stop)
    leaves: list[tuple[int, ...]] = []
    for unit_leaves, unit_stats in fan_out(engine.run_subtree, units, jobs):
        stats.merge(unit_stats)
        leaves.extend(unit_leaves)
    return leaves, stats


# ---------------------------------------------------------------------------
# result cache


class ResultCache:
    """Directory of completed search results, keyed by a canonical JSON key.

    Each entry is one file: the sha256 hex digest of its body, a newline,
    then the body, the JSON object of the schema, the key and the payload.
    An entry whose digest, JSON, key or schema does not match is a miss, and
    is recomputed.
    """

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: dict) -> str:
        digest = hashlib.sha256(
            json.dumps({**key, "schema": CACHE_SCHEMA}, sort_keys=True).encode()
        ).hexdigest()[:24]
        return os.path.join(self.directory, f"{digest}.json")

    def load(self, key: dict) -> dict | None:
        try:
            with open(self._path(key), "rb") as fh:
                digest, _, body = fh.read().partition(b"\n")
        except OSError:
            return None
        if digest != hashlib.sha256(body).hexdigest().encode():
            return None
        try:
            entry = json.loads(body)
        except ValueError:
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("key") != key or entry.get("schema") != CACHE_SCHEMA:
            return None
        return entry

    def ensure_writable(self) -> None:
        """Create the directory and a probe file in it, so that a search
        whose result could not be stored fails before it runs."""
        probe = os.path.join(self.directory, f".probe-{os.getpid()}")
        try:
            os.makedirs(self.directory, exist_ok=True)
            os.close(os.open(probe, os.O_WRONLY | os.O_CREAT | os.O_TRUNC))
            os.remove(probe)
        except OSError as exc:
            raise CacheUnwritable(f"{self.directory}: {exc.strerror or exc}") from exc

    def store(self, key: dict, payload: dict) -> None:
        entry = {"schema": CACHE_SCHEMA, "key": key, **payload}
        body = json.dumps(entry, sort_keys=True).encode()
        try:
            os.makedirs(self.directory, exist_ok=True)
            path = self._path(key)
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "wb") as fh:
                fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
            os.replace(tmp, path)
        except OSError as exc:
            raise CacheUnwritable(f"{self.directory}: {exc.strerror or exc}") from exc

    def purge(self) -> int:
        """Remove all cache entries, and the tmp and probe files that killed
        processes left behind; returns the number of files removed.  Other
        files in the directory are left alone."""
        removed = 0
        if not os.path.isdir(self.directory):
            return 0
        for name in sorted(os.listdir(self.directory)):
            if _CACHE_FILE.fullmatch(name):
                os.remove(os.path.join(self.directory, name))
                removed += 1
        return removed


def resolve_cache(cache_dir: str | None = None, enabled: bool = True) -> ResultCache | None:
    """Cache in ``cache_dir``, else $ZS_CACHE, else ./.zs-cache."""
    if not enabled:
        return None
    directory = cache_dir or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR
    return ResultCache(directory)


# ---------------------------------------------------------------------------
# public operations


def enumerate_leaves(
    spec: EnumSpec,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> tuple[list[tuple[int, ...]], SearchStats]:
    """The sequences matching the spec as sorted element-index tuples,
    lex-ordered, plus search statistics: read from ``cache`` when it holds
    them, else searched (and stored).  :func:`decode_leaves` turns any
    slice of them into Sequences."""
    if spec.length < 0:
        raise SchemaError(f"length must be >= 0, got {spec.length}")
    grp = group(spec.n)
    if spec.length == 0:
        _compile_predicate(grp, spec.predicate, spec.params)  # validates the spec
        # the empty sequence is zero-sum but, by convention, not minimal
        leaves = [] if spec.predicate == "minimal-zero-sum" else [()]
        return leaves, SearchStats(leaves=len(leaves))
    key = spec.key()
    if cache is not None:
        entry = cache.load(key)
        if entry is not None:
            return entry["leaves"], SearchStats(**entry["stats"])
        cache.ensure_writable()
    leaves, stats = _search(
        grp, spec.predicate, spec.params, spec.length, spec.up_to_symmetry, jobs=jobs
    )
    if cache is not None and len(leaves) <= _CACHE_MAX_SEQUENCES:
        cache.store(key, {"leaves": leaves, "stats": stats.__dict__})
    return leaves, stats


def decode_leaves(n: int, leaves: Iterable[Iterable[int]]) -> list[Sequence]:
    """Sequences over (Z/nZ)^2 from element-index tuples."""
    grp = group(n)
    return [Sequence.from_terms(grp, (grp.unindex(i) for i in leaf)) for leaf in leaves]


def enumerate_sequences(
    spec: EnumSpec,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> tuple[list[Sequence], SearchStats]:
    """All sequences matching the spec, lex-ordered, plus search statistics.

    With ``up_to_symmetry`` each orbit appears exactly once, as its least
    member.  Results (and node counts) are identical for every ``jobs``.
    """
    leaves, stats = enumerate_leaves(spec, jobs=jobs, cache=cache)
    return decode_leaves(spec.n, leaves), stats


def max_length_with(
    grp: Group,
    predicate: str,
    params: dict | None = None,
    *,
    jobs: int = 1,
    depth_cap: int | None = None,
) -> tuple[int, SearchStats]:
    """Largest length of any sequence satisfying a monotone predicate.

    The whole canonical search forest is walked, so the returned maximum is
    exhaustive.  ``depth_cap`` guards predicates with unbounded maxima.
    """
    _, stats = _search(
        grp,
        predicate,
        params or {},
        None,
        True,
        jobs=jobs,
        depth_cap=depth_cap,
    )
    return stats.max_depth, stats


def _cached_max_length_plus_one(
    grp: Group,
    op: str,
    params: dict,
    predicate: str,
    *,
    bound: int,
    jobs: int,
    cache: ResultCache | None,
    depth_cap: int,
) -> int:
    """1 + the longest length satisfying ``predicate`` with ``params``,
    cached under ``{"op": op, "n": n, **params}``; moduli above ``bound``
    raise BudgetExceeded."""
    if grp.n > bound:
        raise BudgetExceeded(
            f"{op} search for n={grp.n} exceeds the exhaustive bound {bound}"
        )
    key = {"op": op, "n": grp.n, **params}
    if cache is not None:
        entry = cache.load(key)
        if entry is not None:
            return entry["value"]
        cache.ensure_writable()
    longest, stats = max_length_with(grp, predicate, params, jobs=jobs, depth_cap=depth_cap)
    value = longest + 1
    if cache is not None:
        cache.store(key, {"value": value, "stats": stats.__dict__})
    return value


def davenport(
    grp: Group,
    *,
    bound: int = 7,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> int:
    """Davenport constant: 1 + the longest zero-sum free length.

    Computed by exhausting the zero-sum-free search forest; no closed
    formula is consulted.  Moduli above ``bound`` raise BudgetExceeded.
    """
    return _cached_max_length_plus_one(
        grp, "davenport", {}, "zero-sum-free",
        bound=bound, jobs=jobs, cache=cache, depth_cap=grp.size + 1,
    )


def s_leq(
    grp: Group,
    k: int,
    *,
    bound: int = 5,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> int:
    """Least l such that every length-l sequence has a zero-sum subsequence
    of length at most k.

    Equals 1 + the longest length admitting no such subsequence.  For k
    below the modulus that maximum can be infinite, so the search carries a
    depth cap of 4n and raises BudgetExceeded on hitting it.
    """
    if k < 1:
        raise SchemaError(f"k must be >= 1, got {k}")
    return _cached_max_length_plus_one(
        grp, "s_leq", {"k": k}, "no-short-zero-sum", bound=bound, jobs=jobs, cache=cache,
        depth_cap=4 * grp.n,
    )
