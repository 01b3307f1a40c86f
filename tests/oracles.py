"""Brute-force reference implementations used to pin expected values.

Everything here is written for clarity over speed and is independent of the
DP / vectorized code paths under test: sums are enumerated by walking every
sub-multiset, symmetry by applying every automorphism one at a time.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd

from zerosum import Automorphism, Group, Sequence, group


def iter_submultisets(seq: Sequence):
    """Yield every subsequence (as a Sequence), the empty one included."""
    items = seq.items()
    ranges = [range(m + 1) for _, m in items]
    for counts in itertools.product(*ranges):
        yield Sequence(seq.group, ((g, c) for (g, _), c in zip(items, counts)))


def naive_restricted_sums(seq: Sequence, lmin: int, lmax: int) -> frozenset:
    out = set()
    for sub in iter_submultisets(seq):
        if lmin <= len(sub) <= lmax:
            out.add(sub.sigma())
    return frozenset(out)


def naive_is_zero_sum_free(seq: Sequence) -> bool:
    zero = seq.group.zero
    return all(
        sub.sigma() != zero for sub in iter_submultisets(seq) if len(sub) >= 1
    )


def naive_is_minimal_zero_sum(seq: Sequence) -> bool:
    if len(seq) == 0 or seq.sigma() != seq.group.zero:
        return False
    zero = seq.group.zero
    return all(
        sub.sigma() != zero
        for sub in iter_submultisets(seq)
        if 1 <= len(sub) < len(seq)
    )


@functools.lru_cache(maxsize=None)
def naive_automorphisms(n: int) -> tuple:
    """All of GL(2, Z/nZ), by scanning the n^4 matrices (p, q, r, s) in
    lexicographic order for a unit determinant; the reference for
    ``Group.perm_table`` and ``Group.automorphisms``."""
    return tuple(Automorphism(n, p, q, r, s)
                 for p, q, r, s in itertools.product(range(n), repeat=4)
                 if gcd((p * s - q * r) % n, n) == 1)


def naive_canonical(seq: Sequence) -> Sequence:
    """Orbit minimum by applying every automorphism explicitly."""
    best = None
    for alpha in naive_automorphisms(seq.group.n):
        image = tuple(sorted(alpha(g) for g in seq))
        if best is None or image < best:
            best = image
    if best is None:
        return seq
    return Sequence.from_terms(seq.group, best)


def orbit_size(seq: Sequence) -> int:
    """Number of distinct sequences in the automorphism orbit.

    Computed as |Aut| / |Stab|, the stabiliser counted by applying every
    row of :meth:`Group.perm_table` to the terms, one row at a time.
    Checked against :func:`naive_orbit`.
    """
    terms = [seq.group.index(g) for g in seq]  # ascending, as the elements
    rows = seq.group.perm_table().tolist()
    stabiliser = sum(sorted(row[x] for x in terms) == terms for row in rows)
    return len(rows) // stabiliser


def naive_orbit(seq: Sequence) -> set:
    return {
        tuple(sorted(alpha(g) for g in seq)) for alpha in naive_automorphisms(seq.group.n)
    }


def burnside_all(n: int, length: int) -> int:
    """The number of automorphism orbits of sequences of ``length`` over
    (Z/nZ)^2, by Burnside's lemma: (1/|Aut|) sum over alpha of Fix(alpha).

    A multiset is fixed by alpha iff its multiplicities are constant on the
    cycles of alpha, so Fix(alpha) is the coefficient of x^length in
    prod over the cycles c of 1 / (1 - x^|c|).  alpha runs over the rows of
    ``Group.perm_table``, grouped by cycle type.
    """
    types: dict = {}
    for row in group(n).perm_table().tolist():
        seen, cycles = [False] * len(row), []
        for first in range(len(row)):
            size, x = 0, first
            while not seen[x]:
                seen[x], x, size = True, row[x], size + 1
            if size:
                cycles.append(size)
        key = tuple(sorted(cycles))
        types[key] = types.get(key, 0) + 1
    total = 0
    for cycles, count in types.items():
        coeffs = [1] + [0] * length  # of prod 1 / (1 - x^c), up to x^length
        for c in cycles:
            for i in range(c, length + 1):
                coeffs[i] += coeffs[i - c]
        total += count * coeffs[length]
    orbits, rest = divmod(total, sum(types.values()))
    assert rest == 0, (n, length, total)
    return orbits


def property_b_family(n: int) -> set:
    """The canonical forms of e1^[n-1] prod (x_i e1 + e2) over the residue
    multisets {x_1, ..., x_n} with sum x_i = 1 (mod n): the one-coset form
    of property B on the standard basis (Aut is transitive on bases)."""
    grp = group(n)
    return {
        Sequence(grp, [((1, 0), n - 1)] + [((x, 1), 1) for x in xs]).canonicalize()
        for xs in itertools.combinations_with_replacement(range(n), n)
        if sum(xs) % n == 1
    }


def subgroup_generated_by(grp: Group, e1, e2) -> set:
    """Closure of {e1, e2} under addition, for basis cross-checks."""
    seen = {grp.zero}
    frontier = [grp.zero]
    while frontier:
        g = frontier.pop()
        for h in (e1, e2):
            nxt = grp.add(g, h)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def random_sequence(rng, grp: Group, length: int) -> Sequence:
    return Sequence.from_terms(
        grp, (tuple(rng.randrange(grp.n) for _ in range(2)) for _ in range(length))
    )


def naive_eq1_readings(seq: Sequence) -> list:
    """Every reading of seq as e1^[n-1] * prod_{i=1..n} (x_i e1 + e2) with
    sum x_i = 1 (mod n), as (e1, e2, sorted xs) triples, looked up in
    :func:`naive_eq1_table`."""
    return list(naive_eq1_table(seq.group.n).get(seq, ()))


@functools.lru_cache(maxsize=None)
def naive_eq1_table(n: int) -> dict:
    """Every sequence of the shape e1^[n-1] * prod_{i=1..n} (x_i e1 + e2)
    over (Z/nZ)^2, sum x_i = 1 (mod n), mapped to its readings.

    Tries every pair (e1, e2) in lexicographic order, keeps the bases (by
    closure, not by determinant) whose e2 is the least member of e2 + <e1>,
    and builds the shape of every residue multiset by scanning the coset;
    each sequence's readings are in that order.
    """
    grp = group(n)
    table: dict = {}
    for e1 in grp.elements():
        line = [grp.scale(t, e1) for t in range(n)]
        for e2 in grp.elements():
            coset = [grp.add(e2, h) for h in line]
            if e2 != min(coset) or len(subgroup_generated_by(grp, e1, e2)) != n * n:
                continue
            for xs in itertools.combinations_with_replacement(range(n), n):
                if sum(xs) % n != 1:
                    continue
                shape = Sequence.from_terms(grp, [e1] * (n - 1) + [coset[x] for x in xs])
                table.setdefault(shape, []).append((e1, e2, xs))
    return table


def naive_property_a_witnesses(seq: Sequence) -> list:
    """Every pair (e1, e2) with supp(seq) inside {e1} union (e2 + <e1>), as
    (e1, e2) pairs in lexicographic order, looked up in
    :func:`naive_property_a_table`."""
    supp = set(seq.support())
    return [(e1, e2) for e1, e2, coset in naive_property_a_table(seq.group.n)
            if supp <= {e1} | coset]


@functools.lru_cache(maxsize=None)
def naive_property_a_table(n: int) -> tuple:
    """Every basis (e1, e2) of (Z/nZ)^2 (by closure, not by determinant)
    whose e2 is the least member of e2 + <e1>, as (e1, e2, coset) triples in
    lexicographic order of (e1, e2), the coset built by scanning the
    multiples of e1."""
    grp = group(n)
    table = []
    for e1 in grp.elements():
        line = [grp.scale(t, e1) for t in range(n)]
        for e2 in grp.elements():
            coset = frozenset(grp.add(e2, h) for h in line)
            if e2 == min(coset) and len(subgroup_generated_by(grp, e1, e2)) == n * n:
                table.append((e1, e2, coset))
    return tuple(table)


def random_automorphism(grp: Group, rng) -> Automorphism:
    """Uniform over GL(2, Z/nZ) by rejection, four ``rng.randrange(n)`` per
    try in the order p, q, r, s; does not build the full list."""
    n = grp.n
    while True:
        p = rng.randrange(n)
        q = rng.randrange(n)
        r = rng.randrange(n)
        s = rng.randrange(n)
        if gcd((p * s - q * r) % n, n) == 1:
            return Automorphism(n, p, q, r, s)


def coset_form_sample(grp: Group, rng) -> list:
    """One random member of the maximal-length minimal zero-sum family,
    e1^[N-1] prod (x_i e1 + e2) with sum x_i = 1, transported by a random
    automorphism alpha, drawn one ``randrange`` at a time: the xs first,
    then alpha by ``random_automorphism``.  Returned as (element,
    multiplicity) pairs with alpha(e1) = (p, r) first and then alpha((x, 1))
    = (p*x + q, r*x + s) per x, coordinates not reduced mod N."""
    N = grp.n
    xs = [rng.randrange(N) for _ in range(N - 1)]
    xs.append((1 - sum(xs)) % N)
    alpha = random_automorphism(grp, rng)
    p, q, r, s = alpha.p, alpha.q, alpha.r, alpha.s
    return [((p, r), N - 1)] + [((p * x + q, r * x + s), 1) for x in xs]


def landing_sequence(base: Sequence, pivots, u, w) -> Sequence:
    """The perturbation landing base - t1 - t2 + u + w, built as a Sequence."""
    grp = base.group
    rest = base.remove(Sequence.from_terms(grp, pivots))
    return Sequence(grp, [*rest.items(), (u, 1), (w, 1)])


def every_landing(base: Sequence, pivots):
    """All m^2 landings of one perturbation move, as (g, u, w, landing) in
    the order of g over the group's elements, with u = t1 + g, w = t2 - g
    and each landing built by ``landing_sequence``."""
    grp = base.group
    t1, t2 = pivots
    for g in grp.elements():
        u, w = grp.add(t1, g), grp.sub(t2, g)
        yield g, u, w, landing_sequence(base, pivots, u, w)


def layer_translate(layer: int, n: int, t: int) -> int:
    """One layer of n^2 bits plus the element of index t = a*n + b: each
    row rotated by b, then the whole layer by a*n bits; the per-layer
    reference for the packed ``subsums.translate``."""
    a, b = divmod(t, n)
    size = n * n
    full = (1 << size) - 1
    low = sum(((1 << (n - b)) - 1) << (r * n) for r in range(n))
    x = (layer & low) << b | (layer & (full ^ low)) >> (n - b)
    return (x << a * n | x >> (size - a * n)) & full


def layer_step(layers: list, n: int, t: int, top: int) -> list:
    """The layers once the term of index t is appended, one layer at a
    time: ``layers[l] | (layers[l - 1] + t)`` for l = top, ..., 1."""
    out = list(layers)
    for l in range(top, 0, -1):
        out[l] |= layer_translate(out[l - 1], n, t)
    return out


def pack_layers(layers, size: int) -> int:
    """Layer l of the list in bits [l size, (l + 1) size) of one int."""
    return sum(layer << l * size for l, layer in enumerate(layers))


def unpack_layers(packed: int, size: int, count: int) -> list:
    """The first ``count`` layers of a packed int, as a list."""
    return [packed >> l * size & (1 << size) - 1 for l in range(count)]


def naive_reach_rows(grp: Group, reach: list, max_len: int) -> list:
    """ROWS[j][s][g] of ``enumeration._reach_rows`` off the tables REACH[g]
    of ``_reach_table``, one bit at a time: -(s + g) in layer j of
    REACH[g]."""
    add, neg, size = grp.add_index_table(), grp.neg_index_table(), grp.size
    return [[[bool(reach[g] >> j * size + neg[add[s][g]] & 1) for g in range(size)]
             for s in range(size)] for j in range(max_len)]
