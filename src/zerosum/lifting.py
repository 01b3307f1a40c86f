"""Multiplication homomorphisms of (Z/NZ)^2 and lifting along them.

For m dividing N, the map g -> m*g has kernel nG (n = N/m, a copy of
(Z/mZ)^2) and image mG (a copy of (Z/nZ)^2).  The Homomorphism object
lists the kernel and carries the image coordinate chart m*(u,v) <-> (u,v)
mod n.  A Homomorphism is built only for m | N (checked at construction),
so the chart reads m*g for g = (a, b) as (a mod n, b mod n) with no check
per term: ``image_in_coords`` is the sequence's (element, multiplicity)
pairs read over (Z/nZ)^2, which the Sequence constructor reduces mod n.

The two verify_* functions check, at statement level, the transfer result
for minimal zero-sums of maximal length 2N-1: their image has no nonempty
zero-sum part of length below n, and when the image lands in the
exceptional four-element shape, the original sequence keeps the
one-basis-coset support property.  Item 1 checks chunks of family rows
e1^[N-1] prod(x_i e1 + e2) on the standard basis (``_rows``), one per
residue multiset mod n by default (``_residue_rows``) or a given number
drawn in bulk (``_family_rows``): it maps them to image indices and sums
with arrays (``image_rows``, the batch form of ``image_in_coords``) and
runs the zero-sum guard over the rows; no row becomes a Sequence unless
reported.  By property B at N = mn, which the ledger verifies for N <= 8,
every minimal zero-sum of length 2mn - 1 is alpha(S) for such a row S and
an automorphism alpha, and alpha moves no verdict: det alpha is a unit mod
N, hence mod n, so alpha mod n is in GL(2, Z/nZ), and m*alpha(g) =
alpha(m*g) has the chart coordinates (alpha mod n)(g mod n).  The image of
alpha(S) is thus the image of S moved by an automorphism, and being
zero-sum and having no zero-sum part shorter than n are both invariant
under automorphisms.  The rows are int32 arrays, and on the standard
basis every value is below N*n in magnitude: a sampled residue is below
N, and the largest residue-row value is the shifted last residue, of
magnitude at most (N - 2)(n - 1) - 1 (one residue 0 and N - 1 of n - 1).
So item 1 takes the (m, n) with N*n = m*n^2 at most 2^31 - 1.  On a
shared 2-core x86_64 machine, 10^4 samples take 0.039 s at (4,5) and
0.005 s at (4,2) (in-process medians, BENCH_47.json), against 0.354 s and
0.167 s for the samples one at a time (BENCH_27.json).
"""

from __future__ import annotations

import dataclasses
import random
from itertools import combinations_with_replacement, islice
from math import gcd

from . import groups
from .classification import construct_exceptional
from .errors import (
    FiberMismatch,
    NotADivisor,
    PreconditionViolated,
    WitnessCheckFailed,
)
from .groups import Elem, Group, group
from .properties import property_a_witnesses
from .report import Report, Stopwatch
from .sequences import Sequence
from .subsums import _has_zero_sum_rows, is_minimal_zero_sum


@dataclasses.dataclass(frozen=True)
class Homomorphism:
    """g -> m*g on (Z/NZ)^2, with its kernel and image chart."""

    N: int
    m: int

    def __post_init__(self) -> None:
        N, m = self.N, self.m
        if m < 2 or N % m != 0 or N // m < 2:
            raise NotADivisor(
                f"need m >= 2 and m | N with N/m >= 2, got N={N}, m={m}"
            )

    @property
    def n(self) -> int:
        return self.N // self.m

    @property
    def source(self) -> Group:
        return group(self.N)

    def __call__(self, g: Elem) -> Elem:
        return ((self.m * g[0]) % self.N, (self.m * g[1]) % self.N)

    def kernel_elements(self) -> tuple[Elem, ...]:
        """The kernel n*G, sorted."""
        n = self.n
        return tuple(
            sorted((n * a % self.N, n * b % self.N)
                   for a in range(self.m) for b in range(self.m))
        )

    # -- image chart: m*(u,v) <-> (u,v) in (Z/nZ)^2 ---------------------------

    @property
    def image_group(self) -> Group:
        return group(self.n)

    def image_coords(self, w: Elem) -> Elem:
        if w[0] % self.m or w[1] % self.m:
            raise FiberMismatch(f"{w} is not in the image of mult-by-{self.m}")
        return (w[0] // self.m % self.n, w[1] // self.m % self.n)

    def image_in_coords(self, seq: Sequence) -> Sequence:
        """phi(S) rewritten over (Z/nZ)^2.  With N = m*n, m*a mod N =
        m*(a mod n), so image_coords(self(g)) is (a mod n, b mod n) for
        g = (a, b): the constructor's reduction mod n is the chart."""
        return Sequence(self.image_group, seq.items())

    def image_rows(self, rows, mults):
        """The image over (Z/nZ)^2 of a batch of multisets, row i the terms
        ``rows[i, j]`` (coordinate pairs, not necessarily reduced mod N), each
        with multiplicity ``mults[j]``: the image indices (a mod n)*n + (b mod
        n) of the terms and each row's image sum, the rows'
        ``image_in_coords`` as arrays."""
        np, n = groups.numpy(), self.n
        a, b = rows[..., 0] % n, rows[..., 1] % n
        k = np.array(mults)
        return a * n + b, np.stack([a @ k % n, b @ k % n], axis=1)


# rows per chunk of item 1.  A chunk pays a fixed n - 1 + N guard steps, so
# fewer, larger chunks run faster; 5000 samples at (4,5) peak at 0.47 MiB
# (tracemalloc) with 512 int32 rows, against 0.24 MiB with 256 rows
# (BENCH_47.json) and the 1 MiB bound of test_item1_streams_its_samples
_ROWS = 512

# the largest int32: item 1's row values are below N*n in magnitude
_INT32_MAX = 2**31 - 1


def _below(N: int, rng: random.Random, count: int):
    """``count`` uniform values in [0, N), as an int32 array: the top k =
    (N - 1).bit_length() bits of each 32-bit word of ``rng.getrandbits``,
    those below N kept (more than half of them, all when N is a power of
    two), redrawn until there are enough."""
    np, k = groups.numpy(), (N - 1).bit_length()
    vals = np.empty(0, np.int32)
    while len(vals) < count:
        words = ((count - len(vals)) << k) // N + 32
        raw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                            "<u4") >> (32 - k)
        vals = np.concatenate([vals, raw[raw < N].astype(np.int32)])
    return vals[:count]


def _rows(xs):
    """Row i: e1 = (1, 0), then (x, 1) for each residue x of ``xs[i]``: the
    family member on the standard basis, with multiplicities N - 1, 1, ...,
    1; coordinates not reduced mod N."""
    out = groups.numpy().empty((len(xs), xs.shape[1] + 1, 2), "int32")
    out[:, 0] = 1, 0
    out[:, 1:, 0], out[:, 1:, 1] = xs, 1
    return out


def _family_rows(N: int, rng: random.Random, count: int):
    """``count`` uniform random members of the maximal-length minimal
    zero-sum family on the standard basis, in chunks of at most _ROWS rows
    (``_rows``): a chunk draws rows x N residues, its last column then set
    to make each row's sum 1.  No automorphism is drawn, as none changes a
    verdict (module docstring)."""
    for done in range(0, count, _ROWS):
        rows = min(_ROWS, count - done)
        xs = _below(N, rng, rows * N).reshape(rows, N)
        xs[:, -1] = (1 - xs[:, :-1].sum(axis=1)) % N
        yield _rows(xs)


def _residue_rows(N: int, n: int):
    """The family on the standard basis, one row (``_rows``) per multiset of
    N residues mod n with sum 1 (mod n), in chunks of at most _ROWS rows;
    the last residue is shifted by a multiple of n, which the image under
    mult-by-N/n does not see, so that the row sums to zero mod N."""
    np = groups.numpy()
    multisets = (xs for xs in combinations_with_replacement(range(n), N) if sum(xs) % n == 1)
    while chunk := list(islice(multisets, _ROWS)):
        xs = np.array(chunk, np.int32)
        xs[:, -1] += 1 - xs.sum(axis=1)
        yield _rows(xs)


def verify_propbfix_item1(m: int, n: int, *, samples: int | None = None,
                          seed: int = 2026) -> Report:
    """Check that phi(S) is zero-sum with no nonempty zero-sum part of
    length below n, for minimal zero-sums S of length 2mn-1.

    Both populations are family rows on the standard basis, which stand
    for every S by property B at N = mn and the module docstring's
    equivariance: by default one row per residue multiset
    (``_residue_rows``, about C(N + n - 1, n - 1)/n rows), which reaches
    every image, as the image reads residues mod n only; with ``samples``,
    that many rows drawn from ``random.Random(seed)`` (``_family_rows``).
    Each chunk goes through one image routine (Homomorphism.image_rows)
    and the zero-sum guard's row form (``subsums._has_zero_sum_rows``),
    which appends a row's heavy term min(N - 1, n - 1) times: copies past
    k = n - 1 change no layer and close nothing new.  Only a
    counterexample's row becomes a Sequence.  The report's params are
    those the population read: {m, n}, or {m, n, samples, seed}.  N*n is
    at most 2^31 - 1, so that the int32 rows hold every value (module
    docstring).
    """
    if m < 4 or n < 2:
        raise PreconditionViolated(f"need m >= 4 and n >= 2, got m={m}, n={n}")
    N = m * n
    if N * n > _INT32_MAX:
        raise PreconditionViolated(
            f"need N*n = m*n^2 <= {_INT32_MAX}: the rows are int32 arrays and hold "
            f"values below N*n in magnitude, got N={N}, n={n}")
    hom = Homomorphism(N, m)
    mults = [N - 1] + [1] * N
    bad: list = []
    with Stopwatch() as sw:
        if samples is None:
            chunks, params = _residue_rows(N, n), {"m": m, "n": n}
            provenance = "exhaustive residue enumeration"
        else:
            chunks = _family_rows(N, random.Random(seed), samples)
            params = {"m": m, "n": n, "samples": samples, "seed": seed}
            provenance = "seeded maximal-length family sample"
        scanned = 0
        for rows in chunks:
            scanned += len(rows)
            terms, sums = hom.image_rows(rows, mults)
            off = sums.any(axis=1)
            short = _has_zero_sum_rows(hom.image_group, terms, mults, n - 1)
            for i in (off | short).nonzero()[0].tolist():
                reason = ("image not zero-sum" if off[i]
                          else "image has a zero-sum part shorter than n")
                seq = Sequence(hom.source, zip(rows[i].tolist(), mults))
                bad.append({"sequence": seq.to_json_obj(), "reason": reason})
    return Report(
        check="propbfix-item1",
        params=params,
        orbits_scanned=scanned,
        counterexamples=bad,
        elapsed_ms=sw.elapsed_ms,
        details={"population": provenance},
    )


def _lift(
    hom: Homomorphism,
    pattern: Sequence,
    offsets: list[Elem],
    forced: Elem,
) -> Sequence:
    """Lift an image-coordinate pattern to the source group, shifting each
    copy of a term other than ``forced`` by its kernel offset, in term
    order; the forced term becomes whatever makes the lift zero-sum."""
    if pattern.multiplicity(forced) != 1:
        raise PreconditionViolated(f"forced term {forced} must occur once")
    grp = hom.source
    # coords < n, so each image coordinate c is its own base preimage
    terms = [grp.add(c, k) for c, k in zip((c for c in pattern if c != forced), offsets)]
    total = grp.zero
    for t in terms:
        total = grp.add(total, t)
    last = grp.neg(total)
    if hom.image_coords(hom(last)) != forced:
        raise WitnessCheckFailed(f"lifted term {last} does not map to {forced}")
    return Sequence.from_terms(grp, terms + [last])


_ITEM2_NO_HITS = (
    "the image of a one-coset sequence is again one-coset, with heavy "
    "multiplicity congruent to -1 mod n, so it never has the item-2 shape"
)


# item 2's lifts, split evenly over its patterns: 294 candidates at (4,5)
_STRUCTURED = 256
_RANDOM_LIFTS = 64


def verify_propbfix_item2(m: int, n: int, *, seed: int = 2026) -> Report:
    """Search for minimal zero-sums of length 2mn-1 whose image has the
    exceptional four-element shape, and check the support property on
    every hit.

    The search lifts each exceptional image pattern fiberwise: constant
    kernel offsets per image term (the forced term absorbing the zero-sum
    constraint), plus some lifts with a random offset per copy, drawn from
    ``random.Random(seed)``; _STRUCTURED and _RANDOM_LIFTS fix how many.
    It is a sampled scan, and zero hits is reported as a status, not a pass,
    with ``details["reason"]``: by property B at N = mn every candidate S is
    e1^[mn-1] prod(x_i e1 + e2), whose image is f1^[mn-1] prod(x_i f1 + f2),
    one-coset again, so no S has an image of the exceptional shape.
    """
    if m < 4 or n < 5:
        raise PreconditionViolated(f"need m >= 4 and n >= 5, got m={m}, n={n}")
    N = m * n
    hom = Homomorphism(N, m)
    rng = random.Random(seed)
    kernel = hom.kernel_elements()
    patterns = []
    for x in range(2, n - 1):
        if gcd(x, n) == 1:
            for a in range(1, 2 * m - 1):
                for b in range(1, 2 * m - a):
                    c = 2 * m - a - b
                    patterns.append((x, a, b, c))
    hits: list = []
    bad: list = []
    candidates = 0
    with Stopwatch() as sw:
        for x, a, b, c in patterns:
            pattern = construct_exceptional(n, x, a, b, c)
            forced = (x, 2 % n)  # the unique multiplicity-1 image term
            support = pattern.support()
            per_pattern = max(1, _STRUCTURED // len(patterns))
            copies = [g for g in pattern if g != forced]
            lifts = []
            for _ in range(per_pattern):
                chosen = {g: rng.choice(kernel) for g in support}
                lifts.append([chosen[g] for g in copies])
            for _ in range(_RANDOM_LIFTS // len(patterns)):
                lifts.append([rng.choice(kernel) for _ in copies])
            for offsets in lifts:
                cand = _lift(hom, pattern, offsets, forced)
                candidates += 1
                if is_minimal_zero_sum(cand):
                    hits.append(cand)
        for hit in hits:
            if not property_a_witnesses(hit):
                bad.append(
                    {
                        "sequence": hit.to_json_obj(),
                        "reason": "hit without the one-coset support property",
                    }
                )
    status = "ok" if hits else "no qualifying S found"
    details = {"hits": [h.to_json_obj() for h in hits[:20]], "hit_count": len(hits)}
    if not hits:
        details["reason"] = _ITEM2_NO_HITS
    return Report(
        check="propbfix-item2",
        params={"m": m, "n": n, "seed": seed},
        orbits_scanned=candidates,
        counterexamples=bad,
        elapsed_ms=sw.elapsed_ms,
        status=status,
        details=details,
    )
