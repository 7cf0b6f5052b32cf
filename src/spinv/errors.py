"""Exception taxonomy shared across the package.

Every failure mode surfaced by the numerical layers maps to one of these,
so the CLI can translate them into distinct exit codes: 2 for ParseError,
4 for ConvergenceError (UnattainableMeanError included), 5 for
InversionError (an unusable p_bar(0), the only error an inversion
raises), and 3 for the rest.
"""


class SpinvError(Exception):
    """Base class for all package errors."""


class DomainError(SpinvError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ValidationError(SpinvError, ValueError):
    """Invalid parameter values or malformed configuration."""


class ParseError(SpinvError, ValueError):
    """Malformed input data (CSV and friends)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InversionError(SpinvError):
    """Fourier inversion produced an unusable value (p-bar <= 0, non-finite CF)."""


class ConvergenceError(SpinvError):
    """Iterative solver exhausted its budget, or its root cannot be resolved."""


class UnattainableMeanError(ConvergenceError):
    """Saddlepoint equation has no solution: x0 outside the range of K'."""
