"""Property-based checks of the structural invariants.

Parameter ranges span both cavity regimes (delta from 0.02 to 20) and keep
mode counts small enough that every example solves in milliseconds.  Three
properties cover the full domain, omega_bar 0.1-10, g/omega_bar 1e-6-5 and
delta 1e-3-1e3: the solver's (N at the near/far crossovers or up to 3000),
the weight sum's (N at the crossovers and the block size, or up to 1e5) and
the transform's (N at the crossovers or up to 400).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dressedcavity import (
    DressedAtomParams,
    SuperpositionSpec,
    amplitude_row,
    atom_weights,
    build_matrix,
    entanglement_entropy,
    impurity,
    impurity_identical,
    reduced_pair_matrix,
    single_atom_reduced,
    solve_eigenfrequencies,
    von_neumann_entropy,
)
from dressedcavity import spectrum
from dressedcavity.dynamics import small_cavity_amplitude, survival_sq_lower_bound
from oracles import exact_deviations, gram_deviation

omega_bars = st.floats(0.1, 5.0)
couplings = st.floats(0.05, 3.0)
deltas = st.floats(0.02, 20.0)
mode_counts = st.integers(1, 40)
times = st.floats(0.0, 30.0)
weights = st.floats(0.02, 0.98)
phases = st.floats(0.0, 2.0 * np.pi)
unit_amplitudes = st.complex_numbers(max_magnitude=1.0, allow_infinity=False,
                                     allow_nan=False)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


def _solve(omega_bar, g, delta, n):
    p = DressedAtomParams(omega_bar, g, delta, n_modes=n)
    return p, solve_eigenfrequencies(p)


@st.composite
def _north_star_spectra(draw, counts=(1, 2, 3, 8, 31, 62, 63, 64, 65, 126, 127, 128),
                        most=3000.0):
    """(omega_bar, g, delta, N) over the whole domain, N from ``counts`` (by
    default the near/far crossovers 62-65, 126-128 and a few small counts) or
    log-uniform up to ``most``."""
    omega_bar = draw(_log_uniform(0.1, 10.0))
    g = omega_bar * draw(_log_uniform(1e-6, 5.0))
    n = draw(st.sampled_from(counts) | _log_uniform(1.0, most).map(round))
    return omega_bar, g, draw(_log_uniform(1e-3, 1e3)), n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_north_star_spectra())
# top roots that once crept back by halvings for 36, 40 and 41 direct sums
@example((1.0, 0.8535570531285954, 31.98258390888533, 84))
@example((8.40439930693937, 31.23894632574411, 216.4947178148499, 637))
@example((0.4459313504051177, 2.1194469834055902, 645.4607310178715, 2254))
# a top root 0.567 dw above omega_N that once took 20 direct sums, when its
# bracket reached a Gershgorin bound 3228 dw above omega_N
@example((0.10204512704768355, 0.004556337326011368, 32.29772816736855, 822))
def test_roots_interlace_and_stay_positive(key):
    # ModeSpectrum construction enforces interlacing; reaching here is the pass.
    # Each outer-pair step is one evaluation of the O(1) outer forms (once an
    # O(N) direct sum), and the pair needs at most 12
    with mock.patch.object(spectrum, "_outer_split", wraps=spectrum._outer_split) as split:
        _, spec = _solve(*key)
    assert spec.bigomegas[0] > 0
    assert 0 < split.call_count <= 12
    assert np.all(spec.newton_rel <= 1e-10)


@settings(max_examples=25, deadline=None)
@given(omega_bars, couplings, deltas, mode_counts)
def test_normal_mode_product_identity(omega_bar, g, delta, n):
    # det of the quadratic form: prod Omega_r^2 = omega_bar^2 prod omega_k^2
    p, spec = _solve(omega_bar, g, delta, n)
    lhs = 2.0 * np.sum(np.log(spec.bigomegas))
    rhs = 2.0 * np.log(omega_bar) + 2.0 * np.sum(np.log(spectrum.field_frequencies(p)))
    assert lhs == pytest.approx(rhs, abs=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_north_star_spectra(counts=(1, 2, 8, 63, 64, 16383, 16384, 16385), most=1e5))
# the top of the range, which the derandomized draws rarely reach: a top root
# far above omega_N and a weak coupling
@example((10.0, 50.0, 1e3, 100_000))
@example((0.1, 1e-7, 1e-3, 100_000))
def test_atom_weights_sum_to_one(key):
    # N runs from one mode to 1e5, on both sides of the near/far crossover and
    # of the inner roots' block size, with the outer weights from the outer
    # pair's O(1) forms and the inner ones from the closed form
    _, spec = _solve(*key)
    assert abs(np.sum(atom_weights(spec)) - 1.0) <= 1e-14


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_north_star_spectra(most=400), times)
def test_transform_columns_unit_and_rows_unitary(key, t):
    # N at the near/far crossovers 62-65 and 126-128, or up to 400, over the
    # whole domain: both column bounds hold against the dense, exactly summed t
    _, spec = _solve(*key)
    tm = build_matrix(spec)
    assert np.max(np.abs(np.sum(tm.t**2, axis=0) - 1.0)) < 1e-8
    assert np.all(exact_deviations(tm.t) <= tm.column_deviation)
    assert gram_deviation(tm.t) <= tm.orthogonality_bound
    rows = amplitude_row(tm, "atom", np.array([t]))
    assert np.sum(np.abs(rows[0]) ** 2) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(unit_amplitudes, unit_amplitudes, weights, phases, times)
def test_pair_matrix_trace_and_impurity_range(f_aa, f_bb, xi, phi, t):
    spec = SuperpositionSpec(xi, phi)
    m = reduced_pair_matrix(f_aa, f_bb, spec, t)
    total = m.p_ground + m.p_b_excited + m.p_a_excited
    assert total == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(m.as_matrix()).min() >= -1e-9
    d = impurity(m)
    assert -1e-12 <= d <= 0.5 + 1e-12


@settings(max_examples=40, deadline=None)
@given(unit_amplitudes, weights, weights, phases)
def test_identical_atom_impurity_ignores_superposition(f00, xi_a, xi_b, phi):
    d_a = impurity_identical(f00, SuperpositionSpec(xi_a, phi))
    d_b = impurity_identical(f00, SuperpositionSpec(xi_b, 0.0))
    assert d_a == d_b


@settings(max_examples=40, deadline=None)
@given(unit_amplitudes, weights, phases)
def test_phase_never_enters_impurity(f00, xi, phi):
    spec_0 = SuperpositionSpec(xi, 0.0)
    spec_phi = SuperpositionSpec(xi, phi)
    m0 = reduced_pair_matrix(f00, f00, spec_0, 1.0)
    m1 = reduced_pair_matrix(f00, f00, spec_phi, 1.0)
    assert impurity(m0) == pytest.approx(impurity(m1), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(omega_bars, couplings, deltas, st.integers(2, 30), weights, times)
def test_entropy_constant_for_any_cavity(omega_bar, g, delta, n, xi, t):
    p, spec = _solve(omega_bar, g, delta, n)
    tm = build_matrix(spec)
    row = amplitude_row(tm, "atom", np.array([t]))[0]
    reduced = single_atom_reduced(row, SuperpositionSpec(xi), t)
    assert von_neumann_entropy(reduced) == pytest.approx(
        entanglement_entropy(xi), abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.005, 0.15), st.floats(0.1, 2.0), st.floats(0.2, 3.0), times)
def test_series_respects_its_lower_bound(delta, omega_bar, g, t):
    p = DressedAtomParams(omega_bar, g, delta, n_modes=2)
    val = np.abs(small_cavity_amplitude(p, np.array([t]), 2000)[0]) ** 2
    assert val >= survival_sq_lower_bound(delta) - 1e-9
