"""Exception types shared across the package."""
from __future__ import annotations


class LevyPideError(Exception):
    """Base class for all library-specific errors."""


class ParameterDomainError(LevyPideError, ValueError):
    """A parameter lies outside its admissible domain."""


class StabilityError(ParameterDomainError):
    """Explicit time step violates the estimated stability bound."""


class ToleranceNotMetError(LevyPideError, RuntimeError):
    """A quadrature or iteration exhausted its budget before reaching tolerance.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message: str, estimate: float | complex | None = None,
                 error: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class NoSolutionError(LevyPideError, RuntimeError):
    """A nonlinear equation has no root in the searched region."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class OutOfDomainError(LevyPideError, ValueError):
    """An evaluation point left the padded grid."""


class PlanInvalidError(LevyPideError, ValueError):
    """A field is applied to an operator plan built on another grid."""


class UnsupportedConfigurationError(LevyPideError, ValueError):
    """The requested combination of options is not implemented."""


class SingularityError(LevyPideError, ValueError):
    """Evaluation requested exactly at a non-removable singularity."""


class BlowUpError(LevyPideError, FloatingPointError):
    """The time stepper produced non-finite values."""

    def __init__(self, message: str, step: int | None = None, tau: float | None = None):
        super().__init__(message)
        self.step = step
        self.tau = tau


class ConfigError(LevyPideError, ValueError):
    """A run configuration file is missing or malformed; names the key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"[{key}] {message}")
        self.key = key
