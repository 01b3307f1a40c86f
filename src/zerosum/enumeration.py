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
R_P that send a term of P to t0 and, for g not in P, the rows sending g to
t0: t0 is the orbit minimum of each such term, so Group.orbit_tables
holds them.

Fact: for sorted tuples A, B of equal length, A < B exactly when A has more
copies of c, the least value whose multiplicities differ.  Proof: values
below c occur equally often in both, so A and B agree up to the position p
where those values end; from p on each holds its copies of c and then only
larger values, so at position p + min(copies) the one with fewer copies
shows a value above c while the other still shows c.  With no such c, A = B.

For any alpha, alpha(T) is I = sorted alpha(P) with v = alpha(g) added,
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
A row sending g (not in P) to t0 maps no term of P to t0, so I[0] > P[0]:
it is the case j = 0, v = x = t0 and d = cnt(t0), a tie when t0 is single
in P.

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
The counts are read off a block's terms at once: P (sorted) against
itself gives each term's cnt, and the e are the first of their runs.

Inherited first differences.  Let the node P = P' + [g'] of k terms be a
child of P', g' = P[k-1] >= P'[-1], and alpha a row that P''s test ran
too: through the same term at the same position, so of the same segment
of Group.orbit_tables, with the same t0 and in the same order.  Then
alpha(P) is I' = sorted alpha(P') with v = alpha(g') added; let (j', x')
be the first difference of I' with P'.
- If alpha fixes P' (I' = P'), alpha(P) is P' + [v]: alpha fixes P when v
  = g', and first differs at j = k - 1 with x = g' when v > g'.
- Otherwise I'[:j'] = P'[:j'] <= x' < I'[j'], and g' >= x'.  When v > x',
  v goes in at j' or later, so I[:j'] = P[:j'] and I[j'] = min(I'[j'], v)
  > x' = P[j']: (j, x) = (j', x').  When v = x', I[j'] = x' = P[j'] and the
  first difference lies past j': the row needs a fresh image.
- v < x', or v < g' on a row fixing P', cannot occur: every value below v
  is as frequent in alpha(P) as in P, and alpha(P) holds one copy of v
  more, so alpha(P) < P by the Fact, and P is canonical, being admitted.
So a tested block keeps each R_P row's j as its records (_Records), its
level holds them on the walk's stack until its last child is built, and
a child reads its rows' j off them with one gather v = alpha(g') per row.
Only the rows with v = x', those of a segment P' did not test (through
g', new in P, or through a term whose count g' changed) and the tie rows
(below) of the others get images.  The bookkeeping costs more than the
images save at few rows or short images, so only a chunk of at least
_INHERIT_ROWS rows reads records, and a block keeps them only when its
children have _INHERIT_DEPTH terms or more, are tested, and a block of
them, min(pairs, _BLOCK) nodes of about the block's rows per node,
reaches _INHERIT_ROWS rows.  The crossover, each chunk of davenport(7)
timed both ways (BENCH_49.json): at 4096 rows or more, reading records
takes 1.06x the time of fresh images for nodes of k = 4 terms, 0.87x at
k = 5 and 0.80x at k = 6, 7; at 1024 to 2047 rows 1.04-1.09x at k =
5..7; below 1024 rows 1.1-1.5x.  The chunks that read records image 25%
of their rows there.

The frontier is arrays.  The nodes of one depth are rows of five arrays:
terms, sum, guard layers as n words of n bits (``extend_rows`` of
ZeroSumGuard), candidates packed to bits and the parent's row, about 40
bytes a node at n = 7.  The admitted candidates of a block of nodes, np.nonzero of its
bool rows, are the (parent, g) pairs of its children in lex order; one set
of array calls builds _BLOCK of them, guard layers by one gather, and
drops those left with no candidate.

The test is batched.  A block is cut into chunks of about _CHUNK_ROWS
rows, and one set of array calls decides every candidate of a chunk.  The
rows come from Group.orbit_tables; their sorted images of P give each
row's j and x.  An image is below n^2, so it fits in b =
(n^2 - 1).bit_length() bits of a uint16 key, and the row's index within a
span of 2^(16 - b) rows (1,024 at n = 6..8) in the bits above; the rows of
a span then hold disjoint key ranges of k keys each, and one flat sort of
the span's keys sorts every row in place (_images).  The gain over a sort
per row rests on numpy's SIMD sort of 16-bit keys, measured only on a CPU
with AVX512_SPR (BENCH_35.json, which also times the designs not adopted).
The g that a row beats, {g : alpha(g) < x} ({g : alpha(g) < g} for a row
fixing P), depend on the row and x alone, so each row reads its set off a
table of bitsets (Group.below_sets); their union over a node's rows marks
the candidates it loses.  A row's tie candidate alpha^-1(x) is read off
Group.inverse_table and, when it is a candidate of the node, marked if the
tie rule (_beats) goes against T.  The rows sending a candidate g to t0,
ties with j = 0, are batched the same way for the block's candidates left
and decided by the same rule.  A chunk's memory is its rows times 6 bytes
per term of P (the term rows, and the images twice while _images joins its
spans), a few index arrays, the gather indices of one span and one set of
ceil(n^2 / 64) words of the table for the counting rule, which the budget
of the BENCH_17.json sweep bounds; a chunk that reads records builds term
rows and images for its fresh and tie rows only.  Records take one byte
per R_P row when the search's length or depth cap is below 256 (two bytes
otherwise) and 8 + k bytes per node, for each level on the stack that
keeps them: 0.20 MB at most at davenport(7).

The walk, then the fan-out.  The walk's stack holds a _Level per depth:
the admitted (parent, g) pairs of that depth, counted and not yet built,
and where the pending ones begin.  A step builds the next _BLOCK pairs of
the top level into a block, tests it and pushes its admitted pairs, so a
block's children are walked to the end before the next block of its depth
and leaves come out in lex order.  At jobs = 1 the walk runs to the end.
With jobs > 1 it stops once it has counted _SERIAL_NODES nodes, so a small
search forks nothing and imports no multiprocessing.  The pairs still
pending, the deepest level's first, are cut into about _UNITS_PER_JOB units
per job and level, and ``fan_out`` walks each unit to the end in a forked
worker, which inherits the stack.  Each node is counted once, by its
parent, and leaves merge in walk order, the serial walk's first, so output
and node counts are those of the one walk for any budget, block, chunk
size and worker count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from . import __version__, groups
from .errors import BudgetExceeded, CacheUnwritable, PreconditionViolated, SchemaError
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
    """sha256 of every module of the package: an entry is a command's output."""
    h, here = hashlib.sha256(), os.path.dirname(__file__)
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# any edit to the package source makes every stored entry a miss
CACHE_SCHEMA = f"{__version__}/{_source_digest()[:16]}"

# the files a ResultCache writes: entries, the tmp files of their stores and
# the probe of ensure_writable; purge removes these and nothing else
_CACHE_FILE = re.compile(r"[0-9a-f]{24}\.json(\.[0-9]+\.tmp)?|\.probe-[0-9]+")

# At jobs > 1 a search walks this many nodes in-process before it forks
# (BENCH_26.json sweep), and cuts each level left on its stack into about
# _UNITS_PER_JOB units per job.
_SERIAL_NODES = 10_000
_UNITS_PER_JOB = 4


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
def _reach_table(grp: Group, max_len: int) -> list[int]:
    """REACH[g]: layer j (bits [j n^2, (j + 1) n^2)) is the set of sums of j
    elements all >= g, read off the packed layers of max_len copies of each
    element appended in descending order (subsums.forward_layers)."""
    terms = [g for g in range(grp.size - 1, -1, -1) for _ in range(max_len)]
    history = forward_layers(grp, terms, max_len)
    return [history[(grp.size - g) * max_len] for g in range(grp.size + 1)]


@functools.lru_cache(maxsize=None)
def _reach_rows(grp: Group, max_len: int) -> np.ndarray:
    """ROWS[j, s, g]: can a sequence of sum s still close to a zero-sum by
    j more terms, all >= g, g the first: -(s + g) in layer j of REACH[g].
    The bits of the tables REACH[g], g < n^2, unpacked at once, are gathered
    at bit j n^2 - (s + g) of row g."""
    np, size = groups.numpy(), grp.size
    reach = _reach_table(grp, max_len)[:size]
    width = ((max_len + 1) * size + 7) // 8  # layers 0..max_len
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in reach), np.uint8)
    bits = np.unpackbits(packed.reshape(size, width), axis=1, bitorder="little").view(bool)
    target = np.array(grp.neg_index_table())[np.array(grp.add_index_table())]  # -(s + g)
    layer = np.arange(max_len)[:, None, None] * size
    return bits[np.arange(size), layer + target]


@functools.lru_cache(maxsize=None)
def _tables(grp: Group, canonical: bool) -> tuple:
    """The element indices, ADD, NEG and orbit_min as int16 arrays, and
    START of Group.orbit_tables and STAB: the rows alpha with alpha(e) =
    orbit_min[e] are order[START[e]:][:STAB[e]]."""
    np, size = groups.numpy(), grp.size
    index = np.arange(size, dtype=np.int16)
    add = np.array(grp.add_index_table(), dtype=np.int16)
    neg = np.array(grp.neg_index_table(), dtype=np.int16)
    if not canonical:
        return index, add, neg, index, None, None  # the orbits of the trivial group
    orbit_min, _, start = grp.orbit_tables()
    return index, add, neg, np.array(orbit_min, dtype=np.int16), start, np.diff(start)


# ---------------------------------------------------------------------------
# the batched walk

# A chunk takes nodes of one block until it holds this many rows of the
# sibling test, one node at least (a search without the test has none).
# The rows bound a chunk's memory (module docstring); 4096 is the largest
# budget of the BENCH_17.json sweep (768 to 8192 rows) that leaves the
# search workload's peak RSS where 768-row chunks have it.
_CHUNK_ROWS = 4096
# Children are built _BLOCK at a time, a few hundred kB at most
# (BENCH_24.json); _images gathers and sorts a span of rows at a time.
_BLOCK = 512
# A chunk of _INHERIT_ROWS rows or more reads its rows' first differences
# off its parents' records, which blocks keep when their children have
# _INHERIT_DEPTH terms or more (module docstring); below either, fresh
# images cost less than the bookkeeping (the crossover in the module
# docstring and BENCH_49.json).
_INHERIT_DEPTH = 5
_INHERIT_ROWS = 2048


def _chunks(counts: np.ndarray) -> Iterator[slice]:
    """Slices cutting items of ``counts`` rows each into chunks: a chunk
    ends at the first item that brings it to _CHUNK_ROWS rows, or the last."""
    ends, start = counts.cumsum(), 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        end = min(int(ends.searchsorted(base + _CHUNK_ROWS)) + 1, len(ends))
        yield slice(start, end)
        start = end


class _Nodes(NamedTuple):
    """Nodes of one depth as arrays, one row per node in each: the terms
    (int16, ascending, then the sentinel n^2), the sum, the guard layers
    (ZeroSumGuard.extend_rows), the candidates, packed to bits, and the
    parent's row in the nodes it was built from (0 for a root)."""

    terms: np.ndarray
    sums: np.ndarray
    layers: np.ndarray
    cands: np.ndarray
    up: np.ndarray

    def take(self, index) -> "_Nodes":
        return _Nodes(*(array[index] for array in self))


class _Records(NamedTuple):
    """The R_P rows of a tested block, for its children to read: ``first``,
    each row's first difference j in the test's segment order, ``start``,
    where each node's rows begin in it, and ``tested``, the positions of
    the node's segments (``_tested``)."""

    first: np.ndarray
    start: np.ndarray
    tested: np.ndarray


class _Level(NamedTuple):
    """One depth of the walk's stack: the admitted pairs (parent, g), in
    lex order, of the children T + (g,) of ``nodes[parent]``, counted and
    not yet built; those from ``pos`` on are pending.  ``records`` are the
    nodes' records when their children read them, else None."""

    nodes: _Nodes
    parent: np.ndarray
    g: np.ndarray
    pos: int
    records: _Records | None


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
        # built here, before fan_out forks, so that the workers share them
        self.reach = _reach_rows(grp, length) if (length is not None and self.closes) else None
        tables = _tables(grp, up_to_symmetry)
        self.index, self.add, self.neg, self.orbit_min, self.start, self.stabilizer = tables
        if up_to_symmetry:
            self.perm, self.order = grp.perm_table(), grp.orbit_tables()[1]
            self.inverse = grp.inverse_table()
            below = grp.below_sets()
            self.below = below.reshape(-1, below.shape[2])  # row a's column x at a(n^2 + 1) + x
            # _images' keys: an image in the low b bits, above them the
            # row's index in its span of 2^(16 - b) rows
            np, bits = groups.np, (grp.size - 1).bit_length()
            self.keys = self.perm.view(np.uint16).ravel()
            self.tags = np.arange(1 << (16 - bits), dtype=np.uint16)[:, None] << bits
            self.mask = np.uint16((1 << bits) - 1)
            # the records' dtype: j is below the depth
            self.first_type = np.min_scalar_type(length or depth_cap or np.iinfo(np.int16).max)

    def walk(self, stack: list[_Level], stats: SearchStats, out: list,
             budget: float = float("inf")) -> None:
        """Walk the pending pairs of ``stack`` in lex order, the deepest
        level's first, until none is left or ``stats.nodes`` reaches
        ``budget``; leaves go to ``out``.  A level's pairs are built into
        children _BLOCK at a time, and each block's children are walked to
        the end before the next block (module docstring)."""
        while stack and stats.nodes < budget:
            nodes, parent, g, pos, records = stack[-1]
            if pos >= len(g):
                stack.pop()
                continue
            stack[-1] = _Level(nodes, parent, g, pos + _BLOCK, records)
            block = self._children(nodes, parent[pos:pos + _BLOCK], g[pos:pos + _BLOCK])
            self.expand(block, stack, stats, out, records)

    def expand(self, block: _Nodes, stack: list[_Level], stats: SearchStats, out: list,
               inherited: _Records | None = None) -> None:
        """Test the block, its parents' records ``inherited``, and count its
        admitted children, each once: at the search's length as leaves, else
        pushed on ``stack`` as a level."""
        if not len(block.terms):
            return
        admitted, records = self._admitted(block, inherited)
        parent, g = admitted.nonzero()  # in lex order
        np, depth = groups.np, block.terms.shape[1]
        if not len(g):
            return
        stats.nodes += len(g)
        stats.max_depth = max(stats.max_depth, depth)
        if depth == self.length:
            stats.leaves += len(g)
            out.extend(map(tuple, np.column_stack((block.terms[parent, :-1], g)).tolist()))
        else:
            self._check_depth(depth)
            stack.append(_Level(block, parent.astype(np.int16), g.astype(np.int16), 0, records))

    def _check_depth(self, depth: int) -> None:
        """Nodes of this depth are about to be expanded: raise
        BudgetExceeded at the depth cap.  Not a search budget (those are
        the CLI's): it stops a search that would never end."""
        if self.depth_cap is not None and depth >= self.depth_cap:
            raise BudgetExceeded(
                f"search depth cap {self.depth_cap} reached; the maximum may "
                f"be unbounded for this predicate"
            )

    def _root(self, prefix: tuple[int, ...]) -> _Nodes:
        """The node of an admitted prefix, built a term at a time."""
        np, size = groups.np, self.grp.size
        zero, terms = np.zeros(1, dtype=np.int16), np.full((1, 1), size, dtype=np.int16)
        layers = self.guard.fresh_rows(1)
        nodes = self._nodes(terms, zero, layers, self._candidates(terms, layers, zero), zero)
        for g in prefix:
            nodes = self._children(nodes, zero, np.array([g], dtype=np.int16))
        return nodes

    def _children(self, nodes: _Nodes, parent: np.ndarray, g: np.ndarray) -> _Nodes:
        """The children T + (g,) of the nodes ``nodes[parent]``, g >= T[-1],
        that keep a candidate."""
        np, T = groups.np, nodes.terms[parent]
        terms = np.concatenate((T[:, :-1], g[:, None], T[:, -1:]), axis=1)
        layers = self.guard.extend_rows(nodes.layers[parent], g)
        sums = self.add[nodes.sums[parent], g]
        return self._nodes(terms, sums, layers, self._candidates(terms, layers, sums), parent)

    def _candidates(self, terms: np.ndarray, layers: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """The bool rows of the terms g >= T[-1] that the predicate lets
        extend the nodes."""
        k = terms.shape[1] - 1
        cands = self.index >= (terms[:, -2:-1] if k else terms[:, :1] * 0)
        if self.closes and k + 1 == self.length:
            # The last term is forced by the zero-sum requirement.  With no
            # length bound it is always blocked and never tested: a sorted
            # zero-sum with a zero-sum free prefix is minimal, as a proper
            # zero-sum part can avoid one copy of the largest term and then
            # lies in the prefix.
            cands &= self.index == self.neg[sums][:, None]
            if self.guard.k is None:
                return cands
        cands &= ~self.guard.blocked_rows(layers)
        if self.reach is not None:
            cands &= self.reach[self.length - k - 1][sums]
        return cands

    def _nodes(self, terms, sums, layers, cands: np.ndarray, up: np.ndarray) -> _Nodes:
        """The nodes with ``cands`` cut to the g with orbit_min[g] >= t0 (an
        orbit minimum at the root); nodes with no candidate are dropped."""
        if self.canonical:
            cands &= self.orbit_min >= (terms[:, :1] if terms.shape[1] > 1 else self.index)
        packed = groups.np.packbits(cands, axis=1, bitorder="little")
        nodes = _Nodes(terms, sums, layers, packed, up)
        keep = cands.any(axis=1)
        return nodes if keep.all() else nodes.take(keep)

    def _rows(self, starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows order[starts[i]:][:counts[i]] of the transversal table,
        one segment after another, and where each segment begins."""
        offsets = counts.cumsum() - counts
        index = groups.np.arange(offsets[-1] + counts[-1]) + (starts - offsets).repeat(counts)
        return self.order[index], offsets

    def _images(self, rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """The sorted images alpha(P) for each row alpha and the term row P
        beside it, a span of rows at a time by one flat sort of their keys
        tagged with each row's index in the span (module docstring)."""
        np, span = groups.np, len(self.tags)
        base = rows.astype(np.intp)[:, None]
        base *= self.grp.size
        spans = []
        for i in range(0, len(rows) or 1, span):  # one empty span for no rows
            keys = self.keys[base[i:i + span] + terms[i:i + span]]
            keys |= self.tags[:len(keys)]
            keys.reshape(-1).sort()
            keys &= self.mask
            spans.append(keys)
        images = spans[0] if len(spans) == 1 else np.concatenate(spans)
        return images.view(np.int16)

    def _admitted(self, nodes: _Nodes, inherited: _Records | None = None,
                  ) -> tuple[np.ndarray, _Records | None]:
        """The bool rows of the admitted candidates of the block's nodes: the
        sibling test of the module docstring, a chunk at a time, a chunk of
        _INHERIT_ROWS rows or more reading the parents' records
        ``inherited``; and the block's own records, or None where its
        children would read none (module docstring)."""
        np, size, k = groups.np, self.grp.size, nodes.terms.shape[1] - 1
        cands = np.unpackbits(nodes.cands, axis=1, count=size, bitorder="little").view(bool)
        if not (self.canonical and k and len(cands)):
            return cands, None
        terms = nodes.terms
        tested, single = self._tested(terms[:, :k], cands)
        rows = tested.sum(axis=1) * self.stabilizer[terms[:, 0]]

        def pays() -> bool:
            """Whether a block of children, min(pairs, _BLOCK) nodes of
            about the rows of a node here, reaches _INHERIT_ROWS rows, with
            as many pairs as candidates before the test and as admitted
            after it."""
            return min(np.count_nonzero(cands), _BLOCK) * rows.sum() >= _INHERIT_ROWS * len(rows)

        keep, first = _INHERIT_DEPTH <= k + 1 != self.length and pays(), []
        for part in _chunks(rows):
            inherits = inherited is not None and rows[part].sum() >= _INHERIT_ROWS
            j = self._test_r_p(terms[part], tested[part], rows[part], cands[part],
                               nodes.up[part], inherited if inherits else None)
            if keep:
                first.append(j.astype(self.first_type))
        self._test_fresh(terms, cands, single)
        if not (keep and pays()):
            return cands, None
        return cands, _Records(np.concatenate(first), rows.cumsum() - rows, tested)

    def _tested(self, P: np.ndarray, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """R_P cut to the rows through a term e of t0's orbit as frequent as
        t0, or one copy short when e = P[-1] is a candidate: where each such
        e first occurs in P; and whether t0 is single in P."""
        np = groups.np
        copies = (P[:, :, None] == P[:, None]).sum(axis=2)
        c0, last = copies[:, :1], P[:, -1:]
        tested = copies == c0
        tested |= (copies == c0 - 1) & (P == last) & cands[np.arange(len(P)), last[:, 0], None]
        tested &= self.orbit_min[P] == P[:, :1]
        tested[:, 1:] &= P[:, 1:] != P[:, :-1]
        return tested, c0[:, 0] == 1

    def _test_fresh(self, terms: np.ndarray, out: np.ndarray, single: np.ndarray) -> None:
        """Clear from ``out`` each candidate g not in P, t0 single in P, that
        a row alpha(g) = t0 beats: the tie with j = 0.  The pairs (node, g)
        are batched in chunks of their own, after R_P (through _test_r_p
        they slow the walk; ROADMAP's negative results)."""
        if not single.any():
            return
        np, k = groups.np, terms.shape[1] - 1
        t0 = terms[:, 0]
        fresh = out & (self.orbit_min == t0[:, None]) & single[:, None]
        fresh[np.arange(len(t0)), terms[:, -2]] = False
        node, g = fresh.nonzero()
        counts = self.stabilizer[t0[node]]
        for part in _chunks(counts):
            i, c, gi = node[part], counts[part], g[part]
            rows, offsets = self._rows(self.start[gi], c)
            P = terms[i].repeat(c, axis=0)
            less = _beats(self._images(rows, P[:, :k]), P, gi.repeat(c), 0)
            lost = np.logical_or.reduceat(less, offsets)
            out[i[lost], gi[lost]] = False

    def _test_r_p(self, terms, tested, counts, cands: np.ndarray, up=None,
                  inherited: _Records | None = None) -> np.ndarray:
        """Clear from ``cands`` the candidates of the nodes that a row of
        R_P beats, ``tested[i, j]`` whether the rows through P[j] are
        tested, ``counts`` their number per node; returns each row's first
        difference j.  With the records ``inherited`` of the parents, the
        nodes ``up`` of them, a row of a segment that the parent tested
        reads j off its parent's (module docstring).  Its arrays are freed
        before the rows sending a candidate to t0 are tested."""
        np, size, k = groups.np, self.grp.size, terms.shape[1] - 1
        node, at = tested.nonzero()
        stab = self.stabilizer[terms[node, 0]]
        rows, starts = self._rows(self.start[terms[node, at]], stab)
        owner = np.arange(len(terms)).repeat(counts)  # each row's node
        # the first difference j of each image with P, 0 for a row fixing P
        # (every image starts with t0), and the row's bound x = P[j]; the
        # terms, the tables and cands are read flat here, faster than by 2-d
        # gathers
        pos, flat = owner * (k + 1), terms.ravel()  # where each row's P begins
        base = rows.astype(np.intp)
        if inherited is None:
            P = terms.repeat(counts, axis=0)  # each row's P, then the sentinel
            images = self._images(rows, P[:, :k])
            first = (images != P[:, :k]).argmax(axis=1)
        else:
            # where each segment begins in the parent's records, -1 where
            # the parent did not test it (its last position, P[k-1] = g',
            # is new); the parent's j of each row (mode="clip" keeps the
            # rows of a new segment in range: they get fresh images) and v
            # = alpha(g'): a row fixing the parent's P fixes P when v = g'
            # and first differs at k - 1 when v > g'; any other keeps j
            # when v > x and gets a fresh image when v = x
            parent = inherited.tested[up]
            seg = np.full(tested.shape, -1, dtype=np.intp)
            seg[:, :k - 1] = np.where(parent, inherited.start[up, None] + (
                parent.cumsum(axis=1) - 1) * self.stabilizer[terms[:, :1]], -1)
            seg = seg[node, at]
            first = inherited.first.take(np.arange(len(rows)) + (seg - starts).repeat(stab),
                                         mode="clip")
            last = terms[:, k - 1].repeat(counts)
            v = self.perm.ravel()[base * size + last]
            fresh = v == flat[pos + first]
            fresh |= (seg < 0).repeat(stab)
            fixing = ((first == 0) & ~fresh).nonzero()[0]
            first[fixing] = (v[fixing] != last[fixing]) * (k - 1)
            f = fresh.nonzero()[0]
            Pf = terms[owner[f], :k]
            images = self._images(rows[f], Pf)
            first[f] = (images != Pf).argmax(axis=1)
        pos += first
        x = flat[pos]
        # A row's one tie: g = alpha^-1(x), a candidate other than x, with x
        # single in P[j:] and j > 0
        t = ((first != 0) & (flat[pos + 1] != x)).nonzero()[0]
        if len(t):
            xt = x[t]
            g = self.inverse.ravel()[base[t] * size + xt]
            tie = (g != xt) & cands.ravel()[owner[t] * size + g]
            t, g = t[tie], g[tie]
        if len(t):
            Pt = terms[owner[t]]
            if inherited is None:
                tied = images[t]
            else:  # the fresh rows have their images, the others get theirs
                tied = (images.take(f.searchsorted(t), axis=0, mode="clip") if len(f)
                        else np.empty((len(t), k), np.int16))
                miss = (~fresh[t]).nonzero()[0]
                tied[miss] = self._images(rows[t[miss]], Pt[miss, :k])
            won = _beats(tied, Pt, g, first[t, None])
            t, g = owner[t[won]], g[won]
        # the g each row beats, {alpha(g) < x} in column x of its row of
        # Group.below_sets, or {alpha(g) < g} in column n^2 for a row fixing
        # P; their union per node, as bool rows (the g below P[-1] in them
        # are no candidates, so clearing them changes nothing)
        column = np.where(first == 0, size, x)
        beaten = self.below.take(base * (size + 1) + column, axis=0)
        beaten = np.bitwise_or.reduceat(beaten, counts.cumsum() - counts)
        lost = np.unpackbits(beaten.view(np.uint8), axis=1, count=size, bitorder="little")
        lost = lost.view(bool)
        if len(t):
            lost[t, g] = True  # the ties won, by node
        cands &= ~lost
        return first


def _beats(images: np.ndarray, P: np.ndarray, g: np.ndarray, j) -> np.ndarray:
    """The tie rule of the module docstring, per row: whether I[j:] <
    P[j+1:] + [g] for the sorted images I (k terms) of the term rows P (k
    terms, then the sentinel), the candidates g and the first differences
    j (a column, or 0 for every row).  I[j:k-1] against P[j+1:k] decides,
    and on a draw I[k-1] < g."""
    np = groups.np
    d = images - P[:, 1:]
    d[:, -1] = images[:, -1] - g  # P[k:] is the sentinel; g takes its place
    d *= np.arange(d.shape[1]) >= j  # from j on
    at = (d != 0).argmax(axis=1)
    at += np.arange(0, d.size, d.shape[1])
    return d.ravel()[at] < 0


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
    """One walk in lex order.  With jobs > 1 it stops once it has counted
    _SERIAL_NODES nodes; the pairs left pending on its stack, the deepest
    level's first, are cut into about _UNITS_PER_JOB * jobs units per level,
    and ``fan_out`` walks each unit to the end in a forked worker, which
    inherits the stack, so only slice bounds are pickled.  A search that
    ends within the budget forks nothing.  Each node is counted once, by
    its parent, and leaves merge in walk order, the serial walk's first, so
    results and counts are those of jobs=1 for any budget."""
    engine = _Engine(grp, predicate, params, length, up_to_symmetry, depth_cap)
    stats, leaves, stack = SearchStats(), [], []
    engine._check_depth(0)
    engine.expand(engine._root(()), stack, stats, leaves)
    engine.walk(stack, stats, leaves, _SERIAL_NODES if jobs > 1 else float("inf"))
    per, units = _UNITS_PER_JOB * jobs, []
    for level in reversed(range(len(stack))):
        end = len(stack[level].g)
        pos = min(stack[level].pos, end)
        cuts = [pos + (end - pos) * i // per for i in range(per + 1)]
        units.extend((level, a, b) for a, b in zip(cuts, cuts[1:]) if a < b)

    def finish(unit: tuple[int, int, int]) -> tuple[list[tuple[int, ...]], SearchStats]:
        nodes, parent, g, _, records = stack[unit[0]]
        part, out, unit_stats = slice(*unit[1:]), [], SearchStats()
        engine.walk([_Level(nodes, parent[part], g[part], 0, records)], unit_stats, out)
        return out, unit_stats

    for unit_leaves, unit_stats in fan_out(finish, units, jobs):
        stats.merge(unit_stats)
        leaves.extend(unit_leaves)
    return leaves, stats


# ---------------------------------------------------------------------------
# result cache


# only cli reads it; it stays here as perfbench/tracer.py patches load and store by name
class ResultCache:
    """Directory of completed command outputs, keyed by a canonical JSON key.

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
) -> tuple[list[tuple[int, ...]], SearchStats]:
    """The sequences matching the spec as sorted element-index tuples,
    lex-ordered, plus search statistics.  :func:`decode_leaves` turns any
    slice of them into Sequences."""
    if spec.length < 0:
        raise SchemaError(f"length must be >= 0, got {spec.length}")
    grp = group(spec.n)
    if spec.length == 0:
        _compile_predicate(grp, spec.predicate, spec.params)  # validates the spec
        # the empty sequence is zero-sum but, by convention, not minimal
        leaves = [] if spec.predicate == "minimal-zero-sum" else [()]
        return leaves, SearchStats(leaves=len(leaves))
    return _search(grp, spec.predicate, spec.params, spec.length, spec.up_to_symmetry,
                   jobs=jobs)


def decode_leaves(n: int, leaves: Iterable[Iterable[int]]) -> list[Sequence]:
    """Sequences over (Z/nZ)^2 from element-index tuples."""
    grp = group(n)
    return [Sequence.from_terms(grp, (grp.unindex(i) for i in leaf)) for leaf in leaves]


def enumerate_sequences(spec: EnumSpec, *, jobs: int = 1) -> tuple[list[Sequence], SearchStats]:
    """All sequences matching the spec, lex-ordered, plus search statistics.

    With ``up_to_symmetry`` each orbit appears exactly once, as its least
    member.  Results (and node counts) are identical for every ``jobs``.
    """
    leaves, stats = enumerate_leaves(spec, jobs=jobs)
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


def davenport(grp: Group, *, jobs: int = 1) -> int:
    """Davenport constant: 1 + the longest zero-sum free length.

    Computed by exhausting the zero-sum-free search forest; no closed
    formula is consulted.
    """
    return max_length_with(grp, "zero-sum-free", jobs=jobs, depth_cap=grp.size + 1)[0] + 1


def s_leq(grp: Group, k: int, *, jobs: int = 1) -> int:
    """Least l such that every length-l sequence has a zero-sum subsequence
    of length at most k.

    Equals 1 + the longest length admitting no such subsequence.  For
    1 <= k < n no length forces one, since (1, 0) repeated has no zero-sum
    of length <= k, so s_leq raises PreconditionViolated before it searches.
    For k >= n the value is at most s_leq(n) = 3n - 2; the search still
    carries a depth cap of 4n, which raises BudgetExceeded.
    """
    if k < 1:
        raise SchemaError(f"k must be >= 1, got {k}")
    if k < grp.n:
        raise PreconditionViolated(f"s_leq needs k >= n, got k={k} < n={grp.n}: (1, 0) "
                                   "repeated has no zero-sum of length <= k")
    longest, _ = max_length_with(grp, "no-short-zero-sum", {"k": k}, jobs=jobs,
                                 depth_cap=4 * grp.n)
    return longest + 1
