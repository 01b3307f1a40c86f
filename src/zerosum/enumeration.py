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
(Group.rows_through) and, for g not in P, the rows sending g to t0.

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
  T iff I[j:] < P[j+1:] + [g].
- So v = g never rejects: both sides gain the same copy.
For a row sending g (not in P) to t0, alpha(T) is t0 followed by sorted
alpha(P), all of whose terms lie above t0.  If t0 occurs twice or more in
P, T is smaller at position 1; otherwise sorted alpha(P) is compared with
P[1:] + [g].

Per node the images I are sorted once, for all candidates; a candidate
costs its column alpha(g) over R_P, compared with each row's bound (g for a
row fixing P, else x), plus its tie pairs (a list comparison each) and,
when t0 is single in P, the rows sending g to t0.

A search is one walk.  With jobs > 1 it stops at the first depth with
_UNITS_PER_JOB units per job, and ``fan_out`` completes the subtrees of the
admitted nodes there; each unit is counted once, by its parent, and results
are merged in unit order, so output and node counts are those of the one
walk for any split depth and worker count.
"""

from __future__ import annotations

import functools
import hashlib
import json
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


# ---------------------------------------------------------------------------
# the DFS engine


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b for 2-d arrays of equal shape."""
    d = a - b
    return d[groups.np.arange(len(d)), (d != 0).argmax(axis=1)] < 0


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
        full = (1 << grp.size) - 1
        self.above = [full >> g << g for g in range(grp.size)]  # bits g, g+1, ...
        self.add = grp.add_index_table()
        self.neg = grp.neg_index_table()
        self.orbit_min = grp.orbit_tables()[0] if up_to_symmetry else None
        self.perm = grp.perm_table() if up_to_symmetry else None
        self.reach = (
            _reach_table(grp, length)
            if (length is not None and self.closes)
            else None
        )

    def _admitted(self, P: list[int], cands: list[int]) -> list[int]:
        """The candidates g (ascending, all >= P[-1]) for which P + [g] is
        canonical, given that P is: the sibling test of the module
        docstring, one array pass for all of them."""
        orbit_min = self.orbit_min
        if not P:
            return [g for g in cands if orbit_min[g] == g]
        t0 = P[0]
        cands = [g for g in cands if orbit_min[g] >= t0]
        if not cands:
            return cands
        k, grp, np = len(P), self.grp, groups.np
        cols = np.array(P + cands, dtype=np.int16)
        sub = self.perm.take(grp.rows_through(P, t0), axis=0)[:, cols]
        images, V = sub[:, :k], sub[:, k:]
        images.sort(axis=1)
        # A row's bound is x = P[j] at the first difference j of its image
        # with P.  A row fixing P has j = 0 (every image starts with t0),
        # where the group size stands in, so that np.minimum makes it g.
        first = (images != cols[:k]).argmax(axis=1)
        bound = np.array([grp.size] + P[1:], dtype=np.int16).take(first)[:, None]
        beaten = (V < np.minimum(bound, cols[k:])).any(axis=0).tolist()
        r, c = (V == bound).nonzero()
        for row, j, i in zip(images[r].tolist(), first[r].tolist(), c.tolist()):
            if not beaten[i] and (j + 1 == k or P[j + 1] != P[j]):
                beaten[i] = row[j:] < P[j + 1:] + [cands[i]]
        if k == 1 or P[1] != t0:
            # rows sending g to t0 and no term of P there: the image is
            # t0 + sorted alpha(P), to be compared with P[1:] + [g]
            fresh = [
                i for i, g in enumerate(cands)
                if not beaten[i] and orbit_min[g] == t0 and g != P[-1]
            ]
            if fresh:
                gs = [cands[i] for i in fresh]
                images = self.perm.take(grp.rows_through(gs, t0), axis=0)[:, P]
                images.sort(axis=1)
                target = np.array([P[1:] + [g] for g in gs], dtype=np.int16)
                less = _lex_less(images, target.repeat(len(images) // len(gs), axis=0))
                for i, lost in zip(fresh, less.reshape(len(gs), -1).any(axis=1).tolist()):
                    beaten[i] = lost
        return [g for g, lost in zip(cands, beaten) if not lost]

    def run_subtree(
        self, prefix: tuple[int, ...], stop: int | None = None
    ) -> tuple[list[tuple[int, ...]], SearchStats]:
        """Complete the DFS below an admitted prefix, counting the nodes
        below it.  With ``stop`` the walk also ends at nodes of that depth
        (below ``length``) and returns them, in DFS order, as work units."""
        state = self.guard.fresh()
        sigma = 0
        for g in prefix:
            state = self.guard.extend(state, g)
            sigma = self.add[sigma][g]
        out: list[tuple[int, ...]] = []
        stats = SearchStats()
        T = list(prefix)
        self._dfs(T, state, sigma, prefix[-1] if prefix else 0, stats, out, stop)
        return out, stats

    def _dfs(self, T, state, sigma, last, stats, out, stop) -> None:
        depth = len(T)
        stats.max_depth = max(stats.max_depth, depth)
        if depth == self.length:
            stats.leaves += 1
            out.append(tuple(T))
            return
        if depth == stop:
            out.append(tuple(T))
            return
        if self.depth_cap is not None and depth >= self.depth_cap:
            raise BudgetExceeded(
                f"search depth cap {self.depth_cap} reached; the maximum may "
                f"be unbounded for this predicate"
            )
        guard, add, neg = self.guard, self.add, self.neg
        blocked = guard.blocked(state)
        cands = []
        if self.closes and depth + 1 == self.length:
            # The last term is forced by the zero-sum requirement.  With no
            # length bound it is always blocked and never tested: a sorted
            # zero-sum with a zero-sum free prefix is minimal, as a proper
            # zero-sum part can avoid one copy of the largest term and then
            # lies in the prefix.
            g = neg[sigma]
            if g >= last and (guard.k is None or not blocked >> g & 1):
                cands.append(g)
        else:
            reach = self.reach
            remaining = None if self.length is None else self.length - depth - 1
            candidates = self.above[last] & ~blocked
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                g = low.bit_length() - 1
                if reach is None or reach[g][remaining] >> neg[add[sigma][g]] & 1:
                    cands.append(g)
        if self.canonical:
            cands = self._admitted(T, cands)
        for g in cands:
            T.append(g)
            stats.nodes += 1
            self._dfs(T, guard.extend(state, g), add[sigma][g], g, stats, out, stop)
            T.pop()


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
