"""Exception types shared across the package."""

__all__ = [
    "PrimspecError",
    "WeightParseError",
    "BoundExceededError",
    "NotSinglyAtypicalError",
    "PreconditionError",
    "UnsupportedRegimeError",
    "CacheVersionError",
    "InvariantError",
]


class PrimspecError(Exception):
    """Base class for all package-specific errors."""


class WeightParseError(PrimspecError, ValueError):
    """A weight string or coefficient vector could not be parsed."""


class BoundExceededError(PrimspecError):
    """A configured resource bound would be exceeded.

    The message always names the bound, so callers can report it verbatim.
    """

    def __init__(self, what: str, requested: int, bound: int):
        self.what = what
        self.requested = requested
        self.bound = bound
        super().__init__(
            f"{what} {requested} exceeds the configured bound {bound}"
        )


class NotSinglyAtypicalError(PrimspecError, ValueError):
    """An operation required a singly atypical weight.

    Carries the actual atypicality degree so error messages can name it.
    """

    def __init__(self, weight, degree: int):
        self.weight = weight
        self.degree = degree
        super().__init__(
            f"weight {weight} has atypicality degree {degree}, expected 1"
        )


class PreconditionError(PrimspecError, ValueError):
    """An operation's stated precondition was violated."""


class UnsupportedRegimeError(PrimspecError):
    """The inclusion question is outside the decidable regimes.

    Raised for cross-orbit pairs of atypicality degree >= 2 outside
    gl(2|2); distinct from a negative answer.
    """


class CacheVersionError(PrimspecError):
    """An on-disk cache file has an incompatible version header."""


class InvariantError(PrimspecError, AssertionError):
    """A computed result broke a guaranteed invariant (raised, not asserted,
    so ``python -O`` keeps the check; still an AssertionError for callers)."""
