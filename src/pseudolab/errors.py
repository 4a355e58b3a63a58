"""Shared exception types.

The CLI maps ConfigurationError, DomainError, InapplicableConditionError,
SingularityError, OSError and csv.Error to exit code 2; everything else
that escapes is a genuine failure.  No numerical kernel can fail to
converge, so no exit code stands for that.
"""


class ConfigurationError(ValueError):
    """Bad catalogue name or parameters, bad CLI arguments."""


class DomainError(ValueError):
    """Arguments outside an operation's domain (zero scale factor, l < 2, ...)."""


class InapplicableConditionError(DomainError):
    """Tail-bound condition queried for a family with tail limit 0 or infinity."""


class SingularityError(ArithmeticError):
    """An anchor or probe point sits on (or numerically on) the spectrum."""

    def __init__(self, message: str, which: str = ""):
        super().__init__(message)
        self.which = which
