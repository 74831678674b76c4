"""One input rule per quantity, each stated as what passes, so NaN and inf
fail it with the error its owner names."""

import numpy as np
import pytest

from dressedcavity import (
    DomainError,
    DressedAtomParams,
    FreeSpaceParams,
    RegimeViolation,
    SingleAtomReducedMatrix,
    SuperpositionSpec,
    amplitude_row,
    amplitude_trace,
    atom_element,
    build_form,
    build_matrix,
    diagonalize,
    entanglement_entropy,
    entropy_drift_bound,
    first_order_modes,
    free_space_trace,
    oracle_amplitude,
    reduced_pair_matrix,
    run_cross_checks,
    small_cavity_amplitude,
    small_cavity_trace,
    solve_eigenfrequencies,
    survival_sq_large_time,
    survival_sq_lower_bound,
    survival_trace,
    von_neumann_entropy,
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
    # finite, but omega_bar^2 or g^2 overflows, as a Python float and as a numpy one
    "free-space omega_bar^2 inf": (lambda: FreeSpaceParams(1e200, 0.5), ValueError,
                                   r"omega_bar\^2 and g\^2 must be finite"),
    "free-space np omega_bar^2 inf": (lambda: FreeSpaceParams(np.float64(1e200), 0.5),
                                      ValueError, r"omega_bar\^2 and g\^2 must be finite"),
    "free-space g^2 inf": (lambda: FreeSpaceParams(1.0, 1e200), ValueError,
                           r"omega_bar\^2 and g\^2 must be finite"),
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
    # omega_bar and g as the free-space record reads them
    "late-time omega_bar 0": (lambda: survival_sq_large_time(1.0, 0.0, 0.5), ValueError,
                              "positive and finite"),
    "late-time omega_bar -1": (lambda: survival_sq_large_time(1.0, -1.0, 0.5), ValueError,
                               "positive and finite"),
    "late-time g nan": (lambda: survival_sq_large_time(1.0, 1.0, np.nan), ValueError,
                        "positive and finite"),
    "late-time omega_bar^2 inf": (lambda: survival_sq_large_time(1.0, 1e200, 0.5), ValueError,
                                  r"omega_bar\^2 and g\^2 must be finite"),
    "late-time omega_bar < g": (lambda: survival_sq_large_time(1.0, 0.5, 1.0), RegimeViolation,
                                "kappa"),
    "atom element inf": (lambda: atom_element(np.inf, P), DomainError, "normal frequency"),
    "atom element nan": (lambda: atom_element(np.nan, P), DomainError, "normal frequency"),
    "k_max 2.5": (lambda: small_cavity_amplitude(P, TIMES, k_max=2.5), ValueError, "k_max"),
    "k_max True": (lambda: small_cavity_amplitude(P, TIMES, k_max=True), ValueError, "k_max"),
    "k_max 0": (lambda: first_order_modes(P, 0), ValueError, "k_max"),
    "k_max nan": (lambda: first_order_modes(P, np.nan), ValueError, "k_max"),
    # the first-order model refuses, frequencies and weights alike, what either refused
    "first-order k_max -1": (lambda: first_order_modes(P, -1), ValueError, "k_max"),
    "first-order k_max 2.5": (lambda: first_order_modes(P, 2.5), ValueError, "k_max"),
    "first-order k_max True": (lambda: first_order_modes(P, True), ValueError, "k_max"),
    "first-order delta 0.2": (lambda: first_order_modes(DressedAtomParams(1, .5, .2, 8), 4),
                              RegimeViolation, "delta < 0.2"),
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


def test_spacing_whose_fourth_power_underflows_is_refused():
    # dw = 1e-87: dw^4 underflows to 0, and the secular slope divides by it, so
    # the record refuses the spacing before the solve fails late; the same
    # ratios with dw = 1e-57 solve
    with pytest.raises(ValueError, match=r"dw\^4 must be a normal double, >= 2\.225e-308"):
        DressedAtomParams(1e-80, 1e-77, 1e10, 8)
    spec = solve_eigenfrequencies(DressedAtomParams(1e-50, 1e-47, 1e10, 8))
    assert spec.newton_rel.max() <= 1e-10


def test_numpy_integers_are_integers():
    assert DressedAtomParams(1.0, 0.5, 0.1, np.int64(8)) == P
    for got, want in zip(first_order_modes(P, np.int32(3)), first_order_modes(P, 3)):
        assert np.array_equal(got, want)
    assert oracle_amplitude(DECOMP, 0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)


# (omega_bar, g, delta) in other numeric types; no integer delta meets the
# small cavity's delta < 0.2, so the integers' small cavity takes delta = 0.1
TYPED = {np.float32: (np.float32(1.0), np.float32(0.3), np.float32(0.1)),
         np.int64: (np.int64(3), np.int64(1), np.int64(2)),
         int: (3, 1, 2)}


@pytest.mark.parametrize("kind", TYPED, ids=lambda kind: kind.__name__)
def test_records_hold_the_float64_values(kind):
    # a record holds float64 values, so its results are those of the float64
    # values, whatever numeric type they came in
    omega_bar, g, delta = TYPED[kind]
    small = delta if delta < 0.2 else 0.1
    times = np.linspace(0.0, 20.0, 41)
    typed = [DressedAtomParams(omega_bar, g, delta, 20), FreeSpaceParams(omega_bar, g),
             DressedAtomParams(omega_bar, g, small, 20)]
    plain = [DressedAtomParams(float(omega_bar), float(g), float(delta), 20),
             FreeSpaceParams(float(omega_bar), float(g)),
             DressedAtomParams(float(omega_bar), float(g), float(small), 20)]
    for record in typed:
        values = vars(record)
        assert all(type(v) is float for k, v in values.items() if k != "n_modes"), values
    got, want = solve_eigenfrequencies(typed[0]), solve_eigenfrequencies(plain[0])
    assert np.array_equal(got.asymptotes, want.asymptotes)
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(free_space_trace(typed[1], times).values,
                          free_space_trace(plain[1], times).values)
    assert np.array_equal(small_cavity_trace(typed[2], times, 200).values,
                          small_cavity_trace(plain[2], times, 200).values)


def test_float32_parameters_pass_the_cross_checks():
    rows = run_cross_checks(DressedAtomParams(np.float32(1.0), np.float32(0.3), 0.1, 20))
    assert all(row.passed for row in rows), rows


def test_float32_xi_is_its_float64_value():
    xi = np.float32(0.3)
    spec = SuperpositionSpec(xi)
    assert type(spec.xi) is float
    got = reduced_pair_matrix(1.0, 1.0, spec, 0.0)
    want = reduced_pair_matrix(1.0, 1.0, SuperpositionSpec(float(xi)), 0.0)
    assert np.array_equal(got.as_matrix(), want.as_matrix())
    reduced = SingleAtomReducedMatrix(0.0, xi, np.array([1.0, 0.0]))
    assert von_neumann_entropy(reduced) == entanglement_entropy(0.30000001192092896)


# the package's plain functions, each called with its scalars made by ``kind``
PLAIN = {
    "entanglement_entropy": lambda kind: entanglement_entropy(kind(0.3)),
    "entropy_drift_bound": lambda kind: entropy_drift_bound(kind(0.3), kind(1e-9)),
    "survival_sq_large_time": lambda kind: survival_sq_large_time(kind(3.0), kind(1.0),
                                                                  kind(0.3)),
    "survival_sq_lower_bound": lambda kind: survival_sq_lower_bound(kind(0.1)),
    "atom_element": lambda kind: atom_element(kind(0.9), P),
}


@pytest.mark.parametrize("name", PLAIN)
def test_plain_functions_read_float64_values(name):
    # a float32 argument gives exactly the result of its float64 value, in its type
    call = PLAIN[name]
    got, want = call(np.float32), call(lambda v: float(np.float32(v)))
    assert type(got) is type(want)
    assert got == want
