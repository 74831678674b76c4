"""Exception hierarchy shared by all solver and model modules."""


class SimulationError(Exception):
    """Base class for everything this package raises on purpose."""


class ConvergenceFailure(SimulationError):
    """A root finder or iterative solver did not converge.

    The secular solver raises it when the bisection uses up its step
    budget or a root fails the Newton check; ``interval_index`` is then
    the root index r (0..N).  The Jacobi oracle raises it, without an
    index, when its sweeps or its eigenpair residual fall short.
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
