"""Exception hierarchy shared by all solver and model modules, the one
bound check, :func:`require`, that every numeric invariant goes through,
and the one field setter, :func:`freeze`, of every frozen record.

A check states what passes (``dev <= tol``, not ``dev > tol``), so a NaN,
which compares false with everything, fails it instead of slipping by.
"""

import numpy as np

__all__ = ["SimulationError", "ConvergenceFailure", "RegimeViolation", "DomainError",
           "NormalizationFailure", "InvariantViolation"]


class SimulationError(Exception):
    """Base class for everything this package raises on purpose."""


class ConvergenceFailure(SimulationError):
    """A root finder or iterative solver did not converge.

    The secular solver raises it when the bisection uses up its step
    budget or a root fails the Newton check; ``interval_index`` is then
    the root index r (0..N).  The Jacobi oracle raises it without an index
    when its sweeps fall short, and with the eigenpair's index when that
    pair's residual does.
    """

    def __init__(self, message, interval_index=None):
        super().__init__(message)
        self.interval_index = interval_index


class RegimeViolation(SimulationError):
    """Inputs fall outside the regime a formula is valid in."""


class DomainError(SimulationError):
    """Inconsistent physical inputs (e.g. a non-positive radicand)."""


class NormalizationFailure(SimulationError):
    """A transformation column failed its unit-norm check."""


class InvariantViolation(SimulationError):
    """A computed state violated a structural invariant (trace, unitarity)."""


def require(ok, error, template: str, *values, t=None) -> None:
    """Raise ``error`` unless every element of ``ok`` is true.

    ``ok`` is the condition that passes, so a NaN fails it.  The message is
    ``template`` formatted with each of ``values``, broadcast to ``ok``'s
    shape, at the first failing element i, and with ``{i}`` as i; given the
    times ``t``, it ends with that element's time.  A
    :class:`ConvergenceFailure` carries i as its ``interval_index``.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    i = int(np.argmin(ok))
    at = [np.broadcast_to(v, ok.shape).flat[i] for v in values]
    message = template.format(*at, i=i)
    if t is not None:
        message += f" at t={np.broadcast_to(t, ok.shape).flat[i]}"
    if issubclass(error, ConvergenceFailure):
        raise error(message, interval_index=i)
    raise error(message)


def freeze(record, **fields) -> None:
    """Set each of ``fields`` on the frozen dataclass ``record``, an ndarray as a
    read-only view, never a copy, so the caller's array keeps its own flags."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.view()
            value.setflags(write=False)
        object.__setattr__(record, name, value)
