"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and input
problems exit 2, numerical degeneracies exit 3, evaluation-domain
problems exit 4.
"""

__all__ = [
    "SsgpfaError",
    "ParameterError",
    "UnsupportedKernelError",
    "ConfigError",
    "InputError",
    "NumericalError",
    "EvaluationError",
]


class SsgpfaError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SsgpfaError, ValueError):
    """An argument is outside its mathematical domain (nonpositive
    lengthscale, negative time step, mismatched shapes, ...)."""


class UnsupportedKernelError(ParameterError):
    """A kernel combination that has no state-space form was requested,
    e.g. multiplying by a nonstationary kernel."""


class ConfigError(SsgpfaError, ValueError):
    """A run configuration is contradictory or malformed (bad kernel
    expression, more latents than observed dimensions, conflicting
    flags)."""


class InputError(SsgpfaError, ValueError):
    """Input data violates the format contract (malformed CSV row,
    non-increasing timestamps, length mismatches)."""


class NumericalError(SsgpfaError, ArithmeticError):
    """A computation degenerated numerically (singular innovation
    covariance, non-finite log-likelihood, rank-deficient loading)."""


class EvaluationError(SsgpfaError, ValueError):
    """An evaluation request is undefined for the given data, e.g. a
    threshold sweep over labels that contain no positives."""
