import numpy as np
import pytest

from dressedcavity.errors import ConvergenceFailure, DomainError, InvariantViolation, require


def test_passes_when_every_element_holds():
    require(np.array([0.0, 1e-12]) <= 1e-9, InvariantViolation, "never raised")


def test_nan_fails_and_the_message_names_the_first_failing_element_and_its_time():
    # what passes is stated, dev <= tol, so a NaN fails it, and a later
    # failure (2.0) is not the one named
    dev = np.array([0.0, np.nan, 2.0])
    with pytest.raises(InvariantViolation, match=r"^element 1 deviates by nan at t=0\.5$"):
        require(dev <= 1.0, InvariantViolation, "element {i} deviates by {}", dev,
                t=np.linspace(0.0, 1.0, 3))


def test_scalar_values_broadcast_to_the_check():
    with pytest.raises(DomainError, match=r"^bound 1 exceeded by 3\.0 at t=2\.0$"):
        require(np.array([True, False]), DomainError, "bound {} exceeded by {}", 1, 3.0,
                t=2.0)


def test_convergence_failure_carries_the_failing_index():
    with pytest.raises(ConvergenceFailure, match="^root 2 residual nan$") as err:
        require(np.array([True, True, False, False]), ConvergenceFailure,
                "root {i} residual {}", np.array([0.0, 0.0, np.nan, 1.0]))
    assert err.value.interval_index == 2
