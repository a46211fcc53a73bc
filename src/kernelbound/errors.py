"""Exception types shared across the package.

Every failure mode named in a contract maps to one of these classes so that
callers (and the CLI exit-code logic) can tell mathematical failures apart
from configuration mistakes and resource limits.
"""


class KernelBoundError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(KernelBoundError):
    """Array shapes disagree with the declared system dimensions."""


class NonFiniteError(KernelBoundError):
    """A coefficient, ratio, or field value came out NaN or infinite."""


class HypothesisViolationError(KernelBoundError):
    """A structural hypothesis fails in a way that blocks the requested step."""


class SynthesisError(KernelBoundError):
    """No admissible parameter exists for a Lyapunov synthesis constraint."""


class CertificateError(KernelBoundError):
    """A Lyapunov certificate could not be validated (e.g. unbounded growth)."""


class SaturationError(KernelBoundError):
    """A requested value overflows float64; carries the log-value instead."""

    def __init__(self, log_value: float):
        self.log_value = log_value
        super().__init__(f"value exceeds float64 range, log-value = {log_value:.6g}")


class DomainError(KernelBoundError):
    """An argument lies outside the mathematical domain (e.g. t <= 0)."""


class AssemblyError(KernelBoundError):
    """Discrete operator assembly failed (ellipticity loss, bad grid)."""


class SolveError(KernelBoundError):
    """A linear solve did not reach the required residual."""


class BudgetError(KernelBoundError):
    """A resource budget (node count, time) would be exceeded."""


class ConfigError(KernelBoundError):
    """Malformed or inconsistent run configuration."""
