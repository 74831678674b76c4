"""Exception hierarchy shared by all solver and model modules."""


class SimulationError(Exception):
    """Base class for everything this package raises on purpose."""


class ConvergenceFailure(SimulationError):
    """An iterative solver hit its iteration cap without converging.

    ``interval_index`` identifies the offending root bracket (or sweep)
    when the failure is localized.
    """

    def __init__(self, message, interval_index=None):
        super().__init__(message)
        self.interval_index = interval_index


class RegimeViolation(SimulationError):
    """Inputs fall outside the regime a formula is valid in."""


class DomainError(SimulationError):
    """Inconsistent physical inputs (e.g. a non-positive radicand)."""


class DivisionHazard(SimulationError):
    """A normal mode collided with a bare-mode asymptote upstream."""


class NormalizationFailure(SimulationError):
    """A transformation column failed its unit-norm check."""


class InvariantViolation(SimulationError):
    """A computed state violated a structural invariant (trace, unitarity)."""
