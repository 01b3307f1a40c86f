"""Multiplication homomorphisms of (Z/NZ)^2 and lifting along them.

For m dividing N, the map g -> m*g has kernel nG (n = N/m, a copy of
(Z/mZ)^2) and image mG (a copy of (Z/nZ)^2).  The Homomorphism object
lists the kernel and carries the image coordinate chart m*(u,v) <-> (u,v)
mod n.  A Homomorphism is built only for m | N (checked at construction),
so the chart reads m*g for g = (a, b) as (a mod n, b mod n) with no check
per term: ``image_counts`` maps a multiset given by (element,
multiplicity) pairs straight to the image's multiplicities and sum.

The two verify_* functions check, at statement level, the transfer result
for minimal zero-sums of maximal length 2N-1: their image has no nonempty
zero-sum part of length below n, and when the image lands in the
exceptional four-element shape, the original sequence keeps the
one-basis-coset support property.  Item 1 checks each sample on its
image's multiplicities alone; neither the sample nor its image becomes a
Sequence unless the sample is reported.
"""

from __future__ import annotations

import dataclasses
import random
from math import gcd
from typing import Iterable

from .classification import construct_exceptional
from .enumeration import EnumSpec, enumerate_sequences
from .errors import (
    BudgetExceeded,
    FiberMismatch,
    NotADivisor,
    PreconditionViolated,
    WitnessCheckFailed,
)
from .groups import Elem, Group, group
from .properties import property_a_witnesses
from .report import Report, Stopwatch
from .sequences import Sequence
from .subsums import _has_zero_sum, is_minimal_zero_sum


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
        """phi(S) rewritten over (Z/nZ)^2."""
        img = self.image_group
        counts, _ = self.image_counts(seq.items())
        return Sequence(img, ((img.unindex(i), k) for i, k in counts.items()))

    def image_counts(self, items: Iterable[tuple[Elem, int]]) -> tuple[dict[int, int], Elem]:
        """The image over (Z/nZ)^2 of the multiset given by (element,
        multiplicity) pairs, coordinates not necessarily reduced mod N: the
        map image index -> multiplicity, and the image's sum.  With N = m*n,
        m*a mod N = m*(a mod n), so image_coords(self(g)) is (a mod n, b mod
        n) for g = (a, b)."""
        n = self.n
        counts: dict[int, int] = {}
        get = counts.get
        sa = sb = 0
        for (a, b), k in items:
            a, b = a % n, b % n
            i = a * n + b
            counts[i] = get(i, 0) + k
            sa += a * k
            sb += b * k
        return counts, (sa % n, sb % n)


def _coset_form_sample(grp: Group, rng: random.Random) -> list[tuple[Elem, int]]:
    """A random member of the maximal-length minimal zero-sum family,
    transported by a random automorphism, as (element, multiplicity) pairs
    whose coordinates are not yet reduced mod N."""
    N = grp.n
    xs = [rng.randrange(N) for _ in range(N - 1)]
    xs.append((1 - sum(xs)) % N)
    # the automorphism is drawn after the xs: the pinned sample stream
    # depends on this order
    alpha = grp.random_automorphism(rng)
    # alpha((x, 1)) = (p*x + q, r*x + s)
    p, q, r, s = alpha.p, alpha.q, alpha.r, alpha.s
    return [((p, r), N - 1)] + [((p * x + q, r * x + s), 1) for x in xs]


def verify_propbfix_item1(
    m: int,
    n: int,
    *,
    samples: int = 10_000,
    seed: int = 2026,
    exhaustive: bool = False,
    jobs: int = 1,
) -> Report:
    """Check that phi(S) is zero-sum with no nonempty zero-sum part of
    length below n, for minimal zero-sums S of length 2mn-1.

    Two populations: exhaustive orbit enumeration (mn <= 8 only;
    conclusions are constant on orbits since mult-by-m commutes with every
    automorphism); or, by default, seeded random members of the
    maximal-length family, which by the separately verified one-coset
    structure is the whole search space.  Each population yields (element,
    multiplicity) pairs, checked through one image routine
    (Homomorphism.image_counts), whose image index pairs go straight to the
    zero-sum guard; a sample is built as a Sequence only for a
    counterexample's JSON.
    """
    if m < 4 or n < 2:
        raise PreconditionViolated(f"need m >= 4 and n >= 2, got m={m}, n={n}")
    N = m * n
    grp = group(N)
    hom = Homomorphism(N, m)
    img = hom.image_group
    bad: list = []
    with Stopwatch() as sw:
        if exhaustive:
            if N > 8:
                raise BudgetExceeded(
                    f"exhaustive check needs mn <= 8, got mn={N}"
                )
            reps, _ = enumerate_sequences(
                EnumSpec(N, 2 * N - 1, "minimal-zero-sum"), jobs=jobs
            )
            population = [seq.items() for seq in reps]
            provenance = "exhaustive orbit enumeration"
        else:
            rng = random.Random(seed)
            # drawn one at a time: no sample outlives its own check
            population = (_coset_form_sample(grp, rng) for _ in range(samples))
            provenance = "seeded maximal-length family sample"
        scanned = 0
        for items in population:
            scanned += 1
            counts, total = hom.image_counts(items)
            if total != img.zero:
                reason = "image not zero-sum"
            elif _has_zero_sum(img, list(counts.items()), n - 1):
                reason = "image has a zero-sum part shorter than n"
            else:
                continue
            bad.append({"sequence": Sequence(grp, items).to_json_obj(), "reason": reason})
    return Report(
        check="propbfix-item1",
        params={
            "m": m,
            "n": n,
            "samples": samples,
            "seed": seed,
            "exhaustive": exhaustive,
        },
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


def verify_propbfix_item2(
    m: int,
    n: int,
    *,
    structured: int = 256,
    random_lifts: int = 64,
    seed: int = 2026,
) -> Report:
    """Search for minimal zero-sums of length 2mn-1 whose image has the
    exceptional four-element shape, and check the support property on
    every hit.

    The search lifts each exceptional image pattern fiberwise: constant
    kernel offsets per image term (the forced term absorbing the zero-sum
    constraint), plus some lifts with a random offset per copy.  Budgets
    cap the candidate count; zero hits is reported as a status, not a pass,
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
            per_pattern = max(1, structured // len(patterns))
            copies = [g for g in pattern if g != forced]
            lifts = []
            for _ in range(per_pattern):
                chosen = {g: rng.choice(kernel) for g in support}
                lifts.append([chosen[g] for g in copies])
            for _ in range(max(0, random_lifts // len(patterns))):
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
        params={
            "m": m,
            "n": n,
            "structured": structured,
            "random_lifts": random_lifts,
            "seed": seed,
        },
        orbits_scanned=candidates,
        counterexamples=bad,
        elapsed_ms=sw.elapsed_ms,
        status=status,
        details=details,
    )
