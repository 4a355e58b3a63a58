"""Shared exception types.

The CLI maps ConfigurationError, DomainError, InapplicableConditionError,
SingularityError, numkernel.SingularMatrixError, OSError and csv.Error to
exit code 2 and numkernel.ConvergenceError to exit code 3; everything else
that escapes is a genuine failure.
"""


class ConfigurationError(ValueError):
    """Bad catalogue name, malformed config document, bad CLI arguments."""


class DomainError(ValueError):
    """Arguments outside an operation's domain (zero scale factor, l < 2, ...)."""


class InapplicableConditionError(DomainError):
    """Tail-bound condition queried for a family with tail limit 0 or infinity."""


class SingularityError(ArithmeticError):
    """An anchor or probe point sits on (or numerically on) the spectrum."""

    def __init__(self, message: str, which: str = ""):
        super().__init__(message)
        self.which = which
