"""Exception types shared across the package.

Everything raised deliberately derives from ZsError so callers (and the CLI)
can tell our failures apart from genuine bugs.
"""

from __future__ import annotations


class ZsError(Exception):
    """Base class for all package errors."""


class ParseError(ZsError):
    """Input text could not be parsed at all (bad JSON, bad literal)."""


class SchemaError(ZsError):
    """Parsed input does not match the expected shape or value ranges."""


class EmptySequence(ZsError):
    """Operation requires a nonempty sequence."""


class NotASubsequence(ZsError):
    """A claimed subsequence has a term multiplicity exceeding its parent."""


class SumMismatch(ZsError):
    """Removed and added parts must have equal sums and lengths."""


class InvalidRange(ZsError):
    """Length window [lmin, lmax] is malformed for the given sequence."""


class BudgetExceeded(ZsError):
    """A configured search or enumeration bound was hit before completion.

    Always an error: results are never silently truncated.
    """


class NotABasis(ZsError):
    """The given pair of elements does not generate the group."""


class InvalidX(ZsError):
    """Parameter x outside [2, n-2] or not coprime to n."""


class InvalidCounts(ZsError):
    """Block counts a, b, c must all be at least 1."""


class PreconditionViolated(ZsError):
    """Input fails a stated hypothesis (wrong length, short zero-sum, ...)."""


class LengthMismatch(ZsError):
    """Sequence length is incompatible with the requested decomposition."""


class FiberMismatch(ZsError):
    """Two elements expected to share a fiber of the homomorphism do not."""


class NotADivisor(ZsError):
    """Multiplier m must divide the group modulus."""


class CacheUnwritable(ZsError):
    """The result cache directory cannot be created or written."""


class WitnessCheckFailed(ZsError):
    """A computed witness failed its re-verification (an internal fault)."""
