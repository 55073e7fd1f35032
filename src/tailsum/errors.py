"""Exception hierarchy shared across the package."""


class TailsumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TailsumError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class Underflow(DomainError):
    """A positive probability computes as 0.0 in double precision."""


class InvalidParams(TailsumError, ValueError):
    """Constructor parameters violate a documented constraint."""


class NotPositiveDefinite(TailsumError):
    """A matrix required to be positive definite is not (pivot <= 0)."""


class WrongRadialLaw(TailsumError):
    """The operation needs a different radial law (e.g. a Gaussian copula)."""


class NoFiniteLimit(TailsumError):
    """A limit the asymptotics need is infinite for the radial law."""


class QuadratureError(TailsumError):
    """Adaptive quadrature failed to reach the requested tolerance."""
