"""Exception hierarchy shared across the toolkit.

Validation failures (bad inputs, malformed structures) and solver failures
(non-convergence, enumeration budgets) are kept in separate branches so the
CLI can map them to distinct exit codes.  A validation failure is also a
`ValueError`, so callers that catch the built-in see every bad-input error.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError, ValueError):
    """Bad or inconsistent input data."""

    # RFC 6901 pointer to the faulty part of an input JSON document ("" is the
    # whole document); the CLI loaders set it, None means no document location
    pointer: str | None = None


class NegativeProbability(ValidationError):
    pass


class SumNotOne(ValidationError):
    pass


class OverlappingBlocks(ValidationError):
    pass


class IncompleteCover(ValidationError):
    pass


class EmptyBlock(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class SizeMismatch(ValidationError):
    pass


class SupportMismatch(ValidationError):
    """A denominator of a relative-entropy mode vanishes where the numerator has mass."""


class DuplicateCodeword(ValidationError):
    pass


class UnequalGroupSizes(ValidationError):
    pass


class RaggedLengths(ValidationError):
    pass


class GroupOutOfRange(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class TruncatedStream(ValidationError):
    """Stream ended in the middle of a codeword."""


class InvalidPrefix(ValidationError):
    """Stream contains digits that cannot start any codeword."""


class Infeasible(ValidationError):
    """No admissible point satisfies the requested constraint."""


class NonConvergence(ToolkitError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class BudgetExceeded(ToolkitError):
    """An exhaustive enumeration would exceed the caller-supplied budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required
