"""Exception hierarchy shared across the package."""

__all__ = [
    "AlloysimError",
    "ValidationError",
    "NumericalError",
    "ConstantUndefinedError",
    "NoDensityError",
    "NonintegrableError",
]


class AlloysimError(Exception):
    """Base class for all package errors."""


class ValidationError(AlloysimError):
    """Raised for malformed configuration, arguments or preconditions."""


class NumericalError(AlloysimError):
    """Raised when a computation fails numerically (singularity, divergence,
    non-convergence) rather than because of bad input."""


class ConstantUndefinedError(NumericalError):
    """A derived constant does not exist for the given model (for example the
    hopping-rate constant when the single-site support is a single point)."""


class NoDensityError(ValidationError):
    """The coupling measure has no Lebesgue density."""


class NonintegrableError(NumericalError):
    """A singular integrand fails the integrability check."""
