"""Zero-sum sequence machinery over rank-2 cyclic groups.

Subpackage map:

- groups: element arithmetic, bases, automorphisms of (Z/nZ)^2
- sequences: multiset sequences and their JSON form
- subsums: length-restricted subsequence-sum DP
- enumeration: orderly search up to symmetry, Davenport-style constants, and
  the result cache that only cli uses
- properties: coset-support witnesses and the two closed sequence shapes
- classification: long zero-sum classification and the exceptional family
- perturbation: two-term exchange lemmas
- decomposition: block decompositions into a head and zero-sum blocks
- lifting: multiplication-by-m homomorphisms and the image-transfer checks
- report: the uniform Report; run_search, the one runner of the search checks
- errors: the package's exception types, all derived from ZsError
- cli: the ``zs`` command line front end, which caches each command's output
"""

from __future__ import annotations

__version__ = "0.1.0"

from .classification import classify_long_zero_sum, construct_exceptional, verify_casen
from .decomposition import BlockDecomposition, block_decompositions
from .enumeration import (
    EnumSpec,
    davenport,
    enumerate_sequences,
    max_length_with,
    resolve_cache,
    s_leq,
)
from .groups import Automorphism, Elem, Group, group
from .lifting import Homomorphism, verify_propbfix_item1, verify_propbfix_item2
from .perturbation import upsilon_class, verify_perturbation
from .properties import (
    has_property_a,
    matches_eq1,
    matches_eq2,
    property_a_witnesses,
    verify_property_b,
    verify_property_c,
)
from .report import Report
from .sequences import Sequence
from .subsums import (
    find_zero_sum_subsequence,
    has_short_zero_sum,
    is_minimal_zero_sum,
    is_zero_sum_free,
    restricted_sums,
    subsequence_sums,
)

__all__ = [
    "__version__",
    "Automorphism",
    "Elem",
    "Group",
    "group",
    "Sequence",
    "restricted_sums",
    "subsequence_sums",
    "is_zero_sum_free",
    "is_minimal_zero_sum",
    "has_short_zero_sum",
    "find_zero_sum_subsequence",
    "EnumSpec",
    "enumerate_sequences",
    "max_length_with",
    "davenport",
    "s_leq",
    "resolve_cache",
    "Report",
    "property_a_witnesses",
    "has_property_a",
    "matches_eq1",
    "matches_eq2",
    "verify_property_b",
    "verify_property_c",
    "classify_long_zero_sum",
    "construct_exceptional",
    "verify_casen",
    "upsilon_class",
    "verify_perturbation",
    "Homomorphism",
    "verify_propbfix_item1",
    "verify_propbfix_item2",
    "BlockDecomposition",
    "block_decompositions",
]
