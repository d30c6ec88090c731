"""Exception types shared across the package, and its one integer rule."""

import numpy as np


def _check_integer(value, minimum: int, message: str) -> None:
    """Raise ValueError(message) unless ``value`` is a Python or numpy integer >= ``minimum``.

    A whole float such as 16.0 is not an integer here: counts and seeds
    reach ``range``, array shapes and ``SeedSequence``, which reject a float
    late or round it silently. Nor is a bool, as JSON's true is not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(message)


class DimensionMismatchError(ValueError):
    """An input vector or matrix does not match the model dimension."""


class UnsupportedOrderError(ValueError):
    """A ray-derivative order outside the supported range 1..4 was requested."""


class NonFiniteObjectiveError(RuntimeError):
    """The negative log-density evaluated to a non-finite value."""

    def __init__(self, message: str, theta=None):
        super().__init__(message)
        self.theta = theta


class MapNotConvergedError(RuntimeError):
    """Mode search hit its iteration cap before reaching the gradient tolerance."""

    def __init__(self, message: str, last_iterate=None, grad_norm=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = grad_norm
        self.iterations = iterations


class AssumptionViolationError(RuntimeError):
    """The target violates an assumption the certificate relies on.

    Raised when the Hessian at the mode is not (numerically) positive
    definite, or when no sampled direction admits a positive curvature lower
    bound. Carries a ``details`` dict for structured reporting.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}
