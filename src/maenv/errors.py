"""Exception types shared across the solvers and the command-line runner."""

from __future__ import annotations

__all__ = [
    "MaenvError",
    "NonConvergence",
    "NewtonStall",
    "EmptySupport",
    "NoSubsolution",
    "FamilyExhausted",
    "InfeasibleMask",
    "OrderViolation",
    "InputNotSupersolution",
    "ConfigError",
    "ScenarioFailure",
]


class MaenvError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(MaenvError):
    """An iterative solver hit its iteration budget before reaching tolerance.

    Carries the best iterate found so far and the residual at that iterate so
    callers can inspect (or accept) partial progress.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class NewtonStall(NonConvergence):
    """Damped Newton could not find an acceptable step above the minimum step size."""


class EmptySupport(MaenvError):
    """A measure with empty support was passed where a nontrivial one is required."""


class NoSubsolution(MaenvError):
    """The provided candidate fails the subsolution check required by the method."""


class FamilyExhausted(MaenvError):
    """A supersolution family was exhausted without the fold reaching tolerance."""

    def __init__(self, message, gap=None, best=None):
        super().__init__(message)
        self.gap = gap
        self.best = best


class InfeasibleMask(MaenvError):
    """A set operation received an empty (or otherwise unusable) mask."""


class OrderViolation(MaenvError):
    """Bound fields passed in the wrong order (lower bound above upper bound)."""


class InputNotSupersolution(MaenvError):
    """Pipeline input failed the viscosity supersolution check."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(MaenvError):
    """A scenario configuration is malformed or invalid, or its output cannot be written."""


class ScenarioFailure(MaenvError):
    """A scenario ran to completion but one of its acceptance checks failed."""
