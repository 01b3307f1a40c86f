"""Block decompositions of long sequences and sum-preserving swaps.

A block decomposition splits S into a head W0 and blocks W1..Ws, every
part zero-sum under a chosen homomorphism (identity when none is given).
The strict shape has |W0| = 2n-1 and |Wi| = n; swaps that trade unequal
lengths leave a weak decomposition, which only keeps the per-part
zero-sum condition.

Search runs at image level: candidate blocks are exact-length-n zero-sum
sub-multisets of the image, found in non-decreasing lexicographic order
and lifted back to source terms greedily by element order.  That makes
the stream deterministic and free of duplicates.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from .errors import (
    BudgetExceeded,
    EmptySequence,
    HomSumMismatch,
    InvalidRange,
    LengthMismatch,
    NotASubsequence,
    PatternUnavailable,
    PreconditionViolated,
    WitnessCheckFailed,
)
from .groups import Elem
from .lifting import Homomorphism
from .sequences import Sequence
from .subsums import find_zero_sum_subsequence, has_short_zero_sum, is_minimal_zero_sum


@dataclasses.dataclass(frozen=True)
class SwapContext:
    """Designated image elements for the named swaps: e3bar = x*e1bar + e2bar."""

    e1bar: Elem
    e2bar: Elem
    x: int


@dataclasses.dataclass(frozen=True)
class BlockDecomposition:
    W0: Sequence
    blocks: tuple[Sequence, ...]
    hom: Homomorphism | None = None
    context: SwapContext | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        grp = self.W0.group
        if self.hom is not None and grp.n != self.hom.N:
            raise PreconditionViolated(
                f"parts live in (Z/{grp.n}Z)^2 but hom acts on (Z/{self.hom.N}Z)^2"
            )
        for part in self.parts:
            if part.group != grp:
                raise PreconditionViolated("parts must share one group")
            if len(part) == 0:
                raise EmptySequence("decomposition parts must be nontrivial")
            if self._image_sigma(part) != (0, 0):
                raise PreconditionViolated(
                    f"part {part!r} is not zero-sum under the homomorphism"
                )

    def _image_sigma(self, part: Sequence) -> Elem:
        if self.hom is None:
            return part.sigma()
        return self.hom.image_coords(self.hom(part.sigma()))

    @property
    def parts(self) -> tuple[Sequence, ...]:
        return (self.W0,) + self.blocks

    def sequence(self) -> Sequence:
        out = self.W0
        for b in self.blocks:
            out = out.concat(b)
        return out

    @property
    def blocksize(self) -> int:
        if self.hom is not None:
            return self.hom.n
        if self.blocks:
            return len(self.blocks[0])
        return (len(self.W0) + 1) // 2

    @property
    def strict(self) -> bool:
        n = self.blocksize
        return len(self.W0) == 2 * n - 1 and all(len(b) == n for b in self.blocks)

    def associated(self) -> "AssociatedSequence":
        if self.hom is None:
            per_block = tuple(p.sigma() for p in self.parts)
            sums = Sequence.from_terms(self.W0.group, per_block)
        else:
            per_block = tuple(
                self.hom.kernel_coords(p.sigma()) for p in self.parts
            )
            sums = Sequence.from_terms(self.hom.kernel_group, per_block)
        return AssociatedSequence(per_block, sums)


@dataclasses.dataclass(frozen=True)
class AssociatedSequence:
    """Per-part sums of a decomposition, in kernel coordinates."""

    per_block: tuple[Elem, ...]
    sums: Sequence

    def type_labels(
        self, f1: Elem, f2: Elem
    ) -> tuple[tuple[str, int | None], ...]:
        """Label each part sum against a kernel basis: type I is f1 itself,
        type II is y*f1 + f2 for some y."""
        grp = self.sums.group
        grp.require_basis(f1, f2)
        out = []
        for g in self.per_block:
            if g == f1:
                out.append(("I", None))
                continue
            y, z = grp.coords_in_basis(g, f1, f2)
            out.append(("II", y) if z == 1 else ("other", None))
        return tuple(out)


def associated_sequence(d: BlockDecomposition) -> AssociatedSequence:
    return d.associated()


def _image_term(hom: Homomorphism | None, g: Elem) -> Elem:
    return g if hom is None else hom.image_coords(hom(g))


def _exact_zero_sum_parts(image: Sequence, n: int, floor) -> list[Sequence]:
    """All distinct size-n zero-sum sub-multisets of an image sequence,
    lexicographically at or above the floor, in increasing order."""
    grp = image.group
    items = image.items()
    found: list[Sequence] = []

    def rec(idx: int, left: int, total: Elem, chosen: list):
        if left == 0:
            if total == (0, 0):
                found.append(Sequence(grp, chosen))
            return
        if idx == len(items):
            return
        avail = sum(m for _, m in items[idx:])
        if avail < left:
            return
        g, mult = items[idx]
        for take in range(min(mult, left), -1, -1):
            if take:
                chosen.append((g, take))
            rec(idx + 1, left - take, grp.add(total, grp.scale(take, g)), chosen)
            if take:
                chosen.pop()

    rec(0, n, (0, 0), [])
    found.sort(key=lambda s: s.items())
    if floor is not None:
        found = [s for s in found if s.items() >= floor]
    return found


def _lift(hom: Homomorphism | None, part_image: Sequence, source: Sequence) -> Sequence:
    """Pick source terms realizing an image part, smallest terms first."""
    if hom is None:
        return part_image
    pool = {g: m for g, m in source.items()}
    chosen = []
    for c, need in part_image.items():
        for g in sorted(pool):
            if need == 0:
                break
            if _image_term(hom, g) == c and pool[g] > 0:
                take = min(need, pool[g])
                chosen.append((g, take))
                pool[g] -= take
                need -= take
        if need:
            raise WitnessCheckFailed("image part exceeds available preimage terms")
    return Sequence(source.group, chosen)


def block_decompositions(
    S: Sequence,
    n: int,
    s: int,
    hom: Homomorphism | None = None,
    *,
    context: SwapContext | None = None,
    exhaustive: bool = False,
    cap: int = 10_000,
) -> Iterator[BlockDecomposition]:
    """Stream decompositions of S into W0 (length 2n-1) and s blocks of
    length n, zero-sum under hom.  Default yields the first found; the
    exhaustive flag streams every distinct one up to the cap.
    """
    if len(S) != (2 + s) * n - 1:
        raise LengthMismatch(
            f"need |S| = (2+s)n-1 = {(2 + s) * n - 1}, got {len(S)}"
        )
    if hom is not None and (hom.n != n or S.group.n != hom.N):
        raise PreconditionViolated(
            f"hom maps (Z/{hom.N}Z)^2 with block size {hom.n}; "
            f"got sequence modulus {S.group.n}, n={n}"
        )
    if s < 0:
        raise InvalidRange(f"need s >= 0, got {s}")

    def image_of(seq: Sequence) -> Sequence:
        return seq if hom is None else hom.image_in_coords(seq)

    # the head-minimality check applies in the identity-hom setting
    # when S is zero-sum with no nonempty zero-sum part of length < n
    qualifying = (
        hom is None
        and S.is_zero_sum()
        and not has_short_zero_sum(S, n - 1)
    )

    def rec(src: Sequence, img: Sequence, blocks: list[Sequence], floor):
        if len(blocks) == s:
            if img.sigma() == (0, 0):
                if qualifying and not is_minimal_zero_sum(src):
                    raise WitnessCheckFailed(f"head {src!r} is not a minimal zero-sum")
                yield BlockDecomposition(src, tuple(blocks), hom, context)
            return
        # cheap DP existence probe before enumerating candidates
        if find_zero_sum_subsequence(img, n) is None:
            return
        for part_img in _exact_zero_sum_parts(img, n, floor):
            part_src = _lift(hom, part_img, src)
            blocks.append(part_src)
            yield from rec(
                src.remove(part_src), img.remove(part_img), blocks, part_img.items()
            )
            blocks.pop()

    stream = rec(S, image_of(S), [], None)
    if not exhaustive:
        for d in stream:
            yield d
            return
        return
    count = 0
    for d in stream:
        count += 1
        if count > cap:
            raise BudgetExceeded(f"more than {cap} decompositions")
        yield d


def apply_swap(
    d: BlockDecomposition, j: int, k: int, T: Sequence, R: Sequence
) -> BlockDecomposition:
    """Trade T out of part j for R out of part k.  Requires matching image
    sums; swapping unequal lengths leaves a weak decomposition."""
    parts = list(d.parts)
    if j == k or not (0 <= j < len(parts)) or not (0 <= k < len(parts)):
        raise InvalidRange(f"need distinct part indices in [0, {len(parts) - 1}]")
    if not T.is_subsequence_of(parts[j]):
        raise NotASubsequence(f"T is not contained in part {j}")
    if not R.is_subsequence_of(parts[k]):
        raise NotASubsequence(f"R is not contained in part {k}")
    if d._image_sigma(T) != d._image_sigma(R):
        raise HomSumMismatch(
            "T and R have different sums under the homomorphism"
        )
    parts[j] = parts[j].remove(T).concat(R)
    parts[k] = parts[k].remove(R).concat(T)
    return BlockDecomposition(parts[0], tuple(parts[1:]), d.hom, d.context)


def named_swap_selection(
    d: BlockDecomposition, kind: str, target_block: int
) -> tuple[Sequence, Sequence]:
    """Deterministic T, R choice for the named swaps: smallest available
    source terms realizing the required image pattern."""
    if d.hom is None or d.context is None:
        raise PreconditionViolated("named swaps need a homomorphism and context")
    ctx = d.context
    grpn = d.hom.image_group
    e3bar = grpn.add(grpn.scale(ctx.x, ctx.e1bar), ctx.e2bar)
    n = d.hom.n
    if kind == "e2plus_e3":
        t_pattern = [(ctx.e1bar, ctx.x), (ctx.e2bar, 1)]
        r_image = e3bar
    elif kind == "e3plus_e2":
        t_pattern = [(ctx.e1bar, n - ctx.x), (e3bar, 1)]
        r_image = ctx.e2bar
    else:
        raise InvalidRange(f"unknown swap kind {kind!r}")
    if not (1 <= target_block < len(d.parts)):
        raise InvalidRange(f"target block must be in [1, {len(d.parts) - 1}]")

    def pick(part: Sequence, image: Elem, count: int) -> list[tuple[Elem, int]]:
        got = []
        for g, mult in part.items():
            if _image_term(d.hom, g) == image:
                take = min(count, mult)
                got.append((g, take))
                count -= take
                if count == 0:
                    return got
        raise PatternUnavailable(
            f"part lacks {count} more term(s) with image {image}"
        )

    t_terms: list[tuple[Elem, int]] = []
    for image, count in t_pattern:
        t_terms.extend(pick(d.W0, image, count))
    T = Sequence(d.W0.group, t_terms)
    R = Sequence(d.W0.group, pick(d.parts[target_block], r_image, 1))
    return T, R


def named_swap(
    d: BlockDecomposition, kind: str, target_block: int
) -> BlockDecomposition:
    T, R = named_swap_selection(d, kind, target_block)
    return apply_swap(d, 0, target_block, T, R)
