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
    """A study that does not apply to its input: constant-region on a 4x4
    family, or a decay maximizer outside its weight grid."""


class SingularityError(ArithmeticError):
    """An anchor or probe point sits on (or numerically on) the spectrum."""

    def __init__(self, message: str, which: str = ""):
        super().__init__(message)
        self.which = which
