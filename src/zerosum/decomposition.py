"""Block decompositions of long zero-sum sequences.

A block decomposition splits S into a head W0 of length 2n-1 and blocks
W1..Ws of length n, every part zero-sum.  When S itself is zero-sum with
no nonempty zero-sum part shorter than n, every head is re-checked to be
a minimal zero-sum.

Candidate blocks are the exact-length-n zero-sum sub-multisets of what is
left, found in non-decreasing lexicographic order, each block at or above
the one before.  That makes the stream deterministic and free of
duplicates.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from .errors import (
    BudgetExceeded,
    EmptySequence,
    InvalidRange,
    LengthMismatch,
    PreconditionViolated,
    WitnessCheckFailed,
)
from .groups import Elem
from .sequences import Sequence
from .subsums import find_zero_sum_subsequence, has_short_zero_sum, is_minimal_zero_sum

# the exhaustive stream raises BudgetExceeded past this many decompositions;
# a cap of this module's own, which the CLI never reaches
_MAX_DECOMPOSITIONS = 10_000


@dataclasses.dataclass(frozen=True)
class BlockDecomposition:
    W0: Sequence
    blocks: tuple[Sequence, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        grp = self.W0.group
        for part in self.parts:
            if part.group != grp:
                raise PreconditionViolated("parts must share one group")
            if len(part) == 0:
                raise EmptySequence("decomposition parts must be nontrivial")
            if not part.is_zero_sum():
                raise PreconditionViolated(f"part {part!r} is not zero-sum")

    @property
    def parts(self) -> tuple[Sequence, ...]:
        return (self.W0,) + self.blocks


def _exact_zero_sum_parts(seq: Sequence, n: int, floor) -> list[Sequence]:
    """All distinct size-n zero-sum sub-multisets of a sequence,
    lexicographically at or above the floor, in increasing order."""
    grp = seq.group
    items = seq.items()
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


def block_decompositions(
    S: Sequence,
    n: int,
    s: int,
    *,
    exhaustive: bool = False,
) -> Iterator[BlockDecomposition]:
    """Stream decompositions of S into W0 (length 2n-1) and s zero-sum
    blocks of length n.  Default yields the first found; the exhaustive
    flag streams every distinct one, up to _MAX_DECOMPOSITIONS.
    """
    if len(S) != (2 + s) * n - 1:
        raise LengthMismatch(
            f"need |S| = (2+s)n-1 = {(2 + s) * n - 1}, got {len(S)}"
        )
    if s < 0:
        raise InvalidRange(f"need s >= 0, got {s}")

    # the head-minimality check applies when S is zero-sum with no
    # nonempty zero-sum part of length < n
    qualifying = S.is_zero_sum() and not has_short_zero_sum(S, n - 1)

    def rec(rest: Sequence, blocks: list[Sequence], floor):
        if len(blocks) == s:
            if rest.sigma() == (0, 0):
                if qualifying and not is_minimal_zero_sum(rest):
                    raise WitnessCheckFailed(f"head {rest!r} is not a minimal zero-sum")
                yield BlockDecomposition(rest, tuple(blocks))
            return
        # cheap DP existence probe before enumerating candidates
        if find_zero_sum_subsequence(rest, n) is None:
            return
        for part in _exact_zero_sum_parts(rest, n, floor):
            blocks.append(part)
            yield from rec(rest.remove(part), blocks, part.items())
            blocks.pop()

    stream = rec(S, [], None)
    if not exhaustive:
        for d in stream:
            yield d
            return
        return
    count = 0
    for d in stream:
        count += 1
        if count > _MAX_DECOMPOSITIONS:
            raise BudgetExceeded(f"more than {_MAX_DECOMPOSITIONS} decompositions")
        yield d
