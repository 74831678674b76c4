"""One input rule per quantity, each stated as what passes, so NaN and inf
fail it with the error its owner names."""

import numpy as np
import pytest

from dressedcavity import (
    DomainError,
    DressedAtomParams,
    FreeSpaceParams,
    RegimeViolation,
    amplitude_row,
    amplitude_trace,
    approx_small_cavity_elements,
    atom_element,
    build_form,
    build_matrix,
    diagonalize,
    free_space_trace,
    oracle_amplitude,
    small_cavity_amplitude,
    small_cavity_trace,
    solve_eigenfrequencies,
    survival_sq_large_time,
    survival_trace,
)

P = DressedAtomParams(1.0, 0.5, 0.1, 8)
DECOMP = diagonalize(build_form(P))
TIMES = np.linspace(0.0, 1.0, 3)
TM = build_matrix(solve_eigenfrequencies(P))
BACKWARDS = [3.0, 1.0]

# name -> (the call, the error it must raise, a pattern of its message)
REFUSED = {
    "free-space omega_bar inf": (lambda: FreeSpaceParams(np.inf, 0.5), ValueError,
                                 "positive and finite"),
    "free-space omega_bar nan": (lambda: FreeSpaceParams(np.nan, 0.5), ValueError,
                                 "positive and finite"),
    "free-space g inf": (lambda: FreeSpaceParams(1.0, np.inf), ValueError, "positive and finite"),
    "free-space g zero": (lambda: FreeSpaceParams(1.0, 0.0), ValueError, "positive and finite"),
    "free-space kappa^2 <= 0": (lambda: FreeSpaceParams(1.0, 1.0), RegimeViolation, "kappa"),
    "n_modes inf": (lambda: DressedAtomParams(1, .5, .1, np.inf), ValueError, "n_modes"),
    "n_modes True": (lambda: DressedAtomParams(1, .5, .1, True), ValueError, "n_modes"),
    "n_modes 2.5": (lambda: DressedAtomParams(1, .5, .1, 2.5), ValueError, "n_modes"),
    "n_modes 0": (lambda: DressedAtomParams(1, .5, .1, 0), ValueError, "n_modes"),
    "oracle t nan": (lambda: oracle_amplitude(DECOMP, 0, 0, np.nan), ValueError, "t must"),
    "oracle t inf": (lambda: oracle_amplitude(DECOMP, 0, 0, np.inf), ValueError, "t must"),
    "oracle t < 0": (lambda: oracle_amplitude(DECOMP, 0, 0, -1.0), ValueError, "t must"),
    "late-time t nan": (lambda: survival_sq_large_time(np.nan, 1, 0.5), ValueError, "t must"),
    "late-time t inf": (lambda: survival_sq_large_time(np.inf, 1, 0.5), ValueError, "t must"),
    "late-time t 0": (lambda: survival_sq_large_time(0.0, 1, 0.5), ValueError, "t must"),
    "atom element inf": (lambda: atom_element(np.inf, P), DomainError, "normal frequency"),
    "atom element nan": (lambda: atom_element(np.nan, P), DomainError, "normal frequency"),
    "k_max 2.5": (lambda: small_cavity_amplitude(P, TIMES, k_max=2.5), ValueError, "k_max"),
    "k_max True": (lambda: small_cavity_amplitude(P, TIMES, k_max=True), ValueError, "k_max"),
    "k_max 0": (lambda: approx_small_cavity_elements(P, 0), ValueError, "k_max"),
    "k_max nan": (lambda: approx_small_cavity_elements(P, np.nan), ValueError, "k_max"),
    # a decreasing time grid, refused by every trace builder before any work
    "amplitude_trace decreasing": (lambda: amplitude_trace(TM, 0, 1, BACKWARDS), ValueError,
                                   "non-decreasing, got 1.0"),
    "survival_trace decreasing": (lambda: survival_trace(TM.spectrum, BACKWARDS), ValueError,
                                  "non-decreasing, got 1.0"),
    "free_space_trace decreasing": (lambda: free_space_trace(FreeSpaceParams(1.0, 0.5), BACKWARDS),
                                    ValueError, "non-decreasing, got 1.0"),
    "small_cavity_trace decreasing": (lambda: small_cavity_trace(P, BACKWARDS, 50), ValueError,
                                      "non-decreasing, got 1.0"),
    "amplitude_row decreasing": (lambda: amplitude_row(TM, 0, BACKWARDS), ValueError,
                                 "non-decreasing, got 1.0"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_refuses(name):
    call, error, pattern = REFUSED[name]
    with pytest.raises(error, match=pattern):
        call()


def test_numpy_integers_are_integers():
    assert DressedAtomParams(1.0, 0.5, 0.1, np.int64(8)) == P
    assert np.array_equal(approx_small_cavity_elements(P, np.int32(3)),
                          approx_small_cavity_elements(P, 3))
    assert oracle_amplitude(DECOMP, 0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)
