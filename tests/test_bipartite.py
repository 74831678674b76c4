import itertools
import re
import tracemalloc

import numpy as np
import pytest

from dressedcavity import (
    DomainError,
    DressedAtomParams,
    InvariantViolation,
    ReducedAtomPairMatrix,
    SuperpositionSpec,
    amplitude_row,
    build_matrix,
    entanglement_entropy,
    entropy_drift_bound,
    impurity,
    impurity_identical,
    reduced_pair_matrix,
    row_norm_rounding,
    single_atom_reduced,
    solve_eigenfrequencies,
    von_neumann_entropy,
)
from oracles import single_atom_dense_matrix

# sqrt(0.21) * 0.6 * 0.8 (direct evaluation)
COHERENCE_EXAMPLE = 0.2199636333578803
# -(0.75 ln 0.75 + 0.25 ln 0.25)
ENTROPY_QUARTER = 0.5623351446188083


class TestSuperpositionSpec:
    def test_phase_wraps(self):
        s = SuperpositionSpec(xi=0.5, phi=5 * np.pi)
        assert s.phi == pytest.approx(np.pi)

    @pytest.mark.parametrize("xi", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_degenerate_weights(self, xi):
        with pytest.raises(ValueError):
            SuperpositionSpec(xi=xi)


class TestReducedPairMatrix:
    def test_bell_like_at_t0(self):
        m = reduced_pair_matrix(1.0, 1.0, SuperpositionSpec(0.5, 0.0), 0.0)
        assert m.p_ground == pytest.approx(0.0, abs=1e-12)
        assert m.p_b_excited == pytest.approx(0.5)
        assert m.p_a_excited == pytest.approx(0.5)
        assert m.as_matrix()[3, 3] == 0.0
        assert m.coherence == pytest.approx(0.5 + 0j)

    def test_full_decay(self):
        m = reduced_pair_matrix(0.0, 0.0, SuperpositionSpec(0.3, 1.0), 9.0)
        assert m.p_ground == pytest.approx(1.0)
        assert m.p_a_excited == 0.0
        assert m.coherence == 0

    def test_mixed_example(self):
        m = reduced_pair_matrix(0.6, 0.8j, SuperpositionSpec(0.3, np.pi / 2), 1.0)
        assert m.p_a_excited == pytest.approx(0.108, rel=1e-12)
        assert m.p_b_excited == pytest.approx(0.448, rel=1e-12)
        assert m.p_ground == pytest.approx(0.444, rel=1e-12)
        assert abs(m.coherence) == pytest.approx(COHERENCE_EXAMPLE, rel=1e-12)

    def test_hermitian_matrix(self):
        m = reduced_pair_matrix(0.5 + 0.1j, 0.2 - 0.6j, SuperpositionSpec(0.7, 0.4), 2.0)
        dense = m.as_matrix()
        assert np.array_equal(dense, dense.conj().T)
        assert np.trace(dense).real == pytest.approx(1.0, abs=1e-12)

    def test_positive_semidefinite(self):
        m = reduced_pair_matrix(0.3 - 0.4j, 0.9j, SuperpositionSpec(0.45, 2.2), 0.7)
        eigs = np.linalg.eigvalsh(m.as_matrix())
        assert eigs.min() >= -1e-9

    def test_rejects_oversized_amplitudes(self):
        with pytest.raises(DomainError):
            reduced_pair_matrix(1.2, 0.5, SuperpositionSpec(0.5), 0.0)


class TestImpurity:
    def test_pure_state_is_zero(self):
        m = reduced_pair_matrix(1.0, 1.0, SuperpositionSpec(0.5), 0.0)
        assert impurity(m) == pytest.approx(0.0, abs=1e-12)

    def test_maximum_at_half(self):
        m = reduced_pair_matrix(np.sqrt(0.5), np.sqrt(0.5), SuperpositionSpec(0.5), 1.0)
        assert impurity(m) == pytest.approx(0.5, rel=1e-12)

    def test_mixed_example(self):
        m = reduced_pair_matrix(0.6, 0.8, SuperpositionSpec(0.3), 1.0)
        assert impurity(m) == pytest.approx(0.493728, rel=1e-10)

    def test_closed_form_equals_matrix_trace(self, rng):
        for _ in range(50):
            f_aa = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            f_bb = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            spec = SuperpositionSpec(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi))
            m = reduced_pair_matrix(f_aa, f_bb, spec, 0.3)
            d = impurity(m)
            assert d == pytest.approx(1.0 - m.purity(), abs=1e-9)
            assert 0.0 - 1e-12 <= d <= 0.5 + 1e-12

    def test_purity_takes_the_entries_not_the_dense_matrix(self, monkeypatch):
        m = reduced_pair_matrix(_unit_amplitudes(1), _unit_amplitudes(2),
                                SuperpositionSpec(0.37, 2.4), GRID)
        dense = m.as_matrix()
        traced = np.einsum("...ij,...ji->...", dense, dense).real
        monkeypatch.setattr(ReducedAtomPairMatrix, "as_matrix", None)
        assert np.max(np.abs(m.purity() - traced)) <= 2 * np.finfo(float).eps
        impurity(m)  # its 1e-9 check runs on the entries too


class TestImpurityIdentical:
    def test_limits(self):
        spec = SuperpositionSpec(0.5)
        assert impurity_identical(1.0, spec) == 0.0
        assert impurity_identical(0.0, spec) == 0.0

    def test_at_lower_bound_value(self):
        # survival floor for delta=0.1 pushed through 2u(1-u)
        u = 0.36729331802172704
        spec = SuperpositionSpec(0.5)
        got = impurity_identical(np.sqrt(u), spec)
        assert got == pytest.approx(2 * u * (1 - u), rel=1e-12)
        assert got == pytest.approx(0.46477787, abs=1e-7)

    def test_xi_independence(self):
        f00 = 0.6 - 0.3j
        vals = [impurity_identical(f00, SuperpositionSpec(xi, 0.8))
                for xi in np.linspace(0.1, 0.9, 9)]
        assert np.ptp(vals) == 0.0

    def test_agrees_with_generic_route(self):
        f00 = 0.45 + 0.62j
        spec = SuperpositionSpec(0.37, 1.1)
        m = reduced_pair_matrix(f00, f00, spec, 2.0)
        assert impurity(m) == pytest.approx(impurity_identical(f00, spec), abs=1e-12)


class TestSingleAtomReduced:
    def test_eigenvalues_from_any_unitary_row(self, fig_matrix):
        row = amplitude_row(fig_matrix, "atom", np.array([3.7]))[0]
        r = single_atom_reduced(row, SuperpositionSpec(0.25), 3.7)
        a1, a2 = r.nonzero_eigenvalues()
        assert a1 == pytest.approx(0.75, abs=1e-6)
        assert a2 == pytest.approx(0.25, abs=1e-6)

    def test_dense_eigensolve_reproduces_rank_two(self, fig_matrix):
        # independent dense Hermitian eigensolve on a truncated copy
        row = amplitude_row(fig_matrix, "atom", np.array([5.1]))[0]
        r = single_atom_reduced(row, SuperpositionSpec(0.4), 5.1)
        dense = single_atom_dense_matrix(r.amplitude_row, r.xi)
        eigs = np.sort(np.linalg.eigvalsh(dense))[::-1]
        assert eigs[0] == pytest.approx(0.6, abs=1e-9)
        assert eigs[1] == pytest.approx(0.4, abs=1e-6)
        assert np.max(np.abs(eigs[2:])) < 1e-12

    def test_rejects_norm_defect(self):
        bad = np.array([0.5, 0.5], dtype=complex)
        with pytest.raises(InvariantViolation):
            single_atom_reduced(bad, SuperpositionSpec(0.5), 0.0)


class TestEntropy:
    def test_max_entanglement(self, fig_matrix):
        row = amplitude_row(fig_matrix, "atom", np.array([7.7]))[0]
        r = single_atom_reduced(row, SuperpositionSpec(0.5), 7.7)
        assert von_neumann_entropy(r) == pytest.approx(np.log(2), abs=1e-8)

    def test_quarter_weight(self, fig_matrix):
        row = amplitude_row(fig_matrix, "atom", np.array([2.9]))[0]
        r = single_atom_reduced(row, SuperpositionSpec(0.25), 2.9)
        assert von_neumann_entropy(r) == pytest.approx(ENTROPY_QUARTER, abs=1e-8)

    def test_product_state_limit(self):
        assert entanglement_entropy(1e-9) == pytest.approx(0.0, abs=1e-7)

    def test_constant_over_time(self, fig_matrix):
        times = np.linspace(0.0, 40.0, 300)
        rows = amplitude_row(fig_matrix, "atom", times)
        spec = SuperpositionSpec(0.3, 0.9)
        e0 = entanglement_entropy(0.3)
        devs = [abs(von_neumann_entropy(single_atom_reduced(rows[i], spec, t)) - e0)
                for i, t in enumerate(times)]
        assert max(devs) < 1e-8

    def test_phase_invariance(self, fig_matrix):
        row = amplitude_row(fig_matrix, "atom", np.array([4.4]))[0]
        vals = {von_neumann_entropy(single_atom_reduced(row, SuperpositionSpec(0.6, phi), 4.4))
                for phi in (0.0, np.pi / 2, np.pi, 5.0)}
        assert len(vals) == 1



class TestEntropyDriftBound:
    # the command line's default grid
    TIMES = np.linspace(0.0, 25.0, 501)

    @pytest.mark.parametrize("g, delta, n", list(itertools.product(
        [1e-9, 0.02, 0.9, 5.0], [1e-3, 1.0, 1e3], [1, 8, 200, 2048])))
    def test_bounds_the_time_domain_route(self, g, delta, n):
        # the bound from the record's static margin, row 0 alone, against
        # criterion 7's second route: the whole dense amplitude row, its norms
        # and entropies
        tm = build_matrix(solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n)))
        margin = tm.unitarity_margin(0)
        deviation = margin + row_norm_rounding(tm, 0, margin)
        row = amplitude_row(tm, 0, self.TIMES)
        for xi in (0.05, 0.5, 0.95):
            reduced = single_atom_reduced(row, SuperpositionSpec(xi), self.TIMES)
            assert np.max(np.abs(reduced.row_norm_sq - 1.0)) <= deviation
            drift = np.abs(von_neumann_entropy(reduced) - entanglement_entropy(xi))
            assert np.max(drift) <= entropy_drift_bound(xi, deviation) <= 1e-8

    def test_off_a_uniform_grid(self, fig_matrix):
        times = np.sort(np.random.default_rng(5).uniform(0.0, 40.0, 64))
        norms = np.sum(np.abs(amplitude_row(fig_matrix, "atom", times)) ** 2, axis=1)
        margin = fig_matrix.unitarity_margin(0)
        deviation = margin + row_norm_rounding(fig_matrix, 0, margin)
        assert np.max(np.abs(norms - 1.0)) <= deviation

    @pytest.mark.parametrize("g, delta, n", [(0.5, 0.1, 200), (5.0, 1e-3, 200), (0.02, 1e3, 8),
                                             (5.0, 1e3, 200)])
    def test_rounding_alone_bounds_the_float_row_norms(self, g, delta, n):
        # against the row norms of the same t and the same float angles in
        # long double, so the margin plays no part: only the rounding term
        # can cover the difference (a few eps, never 0)
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        tm = build_matrix(solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n)))
        for times in (self.TIMES, np.sort(np.random.default_rng(5).uniform(0.0, 40.0, 64))):
            norms = single_atom_reduced(amplitude_row(tm, 0, times), SuperpositionSpec(0.5),
                                        times).row_norm_sq
            phases = np.exp(-1j * np.outer(tm.spectrum.bigomegas, times).astype(np.longdouble))
            f = tm.t.astype(np.longdouble) @ (tm.row(0).astype(np.longdouble)[:, None] * phases)
            exact = np.sum(f.real**2 + f.imag**2, axis=0)
            rounding = row_norm_rounding(tm, 0, tm.unitarity_margin(0))
            assert 0.0 < np.max(np.abs(norms - exact)) <= rounding

    def test_bare_mean_value_term(self):
        # xi L d, L = |ln(xi n) + 1| at the interval's far end, plus a few ulps
        xi, d = 0.95, 1e-9
        bare = xi * abs(np.log(xi * (1.0 + d)) + 1.0) * d
        assert bare < entropy_drift_bound(xi, d) < bare + 1e-15
        assert 0.0 < entropy_drift_bound(xi, 0.0) < 1e-15

    def test_covers_the_eigenvalue_cutoff(self):
        # xi n below 1e-12 is dropped from E but not from H
        xi, row = 1e-13, np.array([1.0, 0.0], dtype=complex)
        e = von_neumann_entropy(single_atom_reduced(row, SuperpositionSpec(xi), 0.0))
        assert abs(e - entanglement_entropy(xi)) <= entropy_drift_bound(xi, 0.0)

    @pytest.mark.parametrize("xi, deviation", [(0.0, 1e-9), (1.0, 1e-9), (0.5, -1e-9),
                                               (0.5, 1.0), (0.5, float("nan"))])
    def test_rejects_bad_input(self, xi, deviation):
        with pytest.raises(ValueError):
            entropy_drift_bound(xi, deviation)

# A seeded grid of 501 times, and the one time at which a defect is injected.
GRID = np.linspace(0.0, 25.0, 501)
K = 317


def _unit_amplitudes(seed, n=GRID.size):
    """n seeded complex amplitudes with |f| <= 1."""
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def _unit_rows(seed, n=GRID.size, width=12):
    """n seeded complex amplitude rows of unit norm."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, width)) + 1j * rng.normal(size=(n, width))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _names(k):
    return re.escape(f"at t={GRID[k]}")


class TestTimeGrid:
    """Arrays over a time grid give, at each time, exactly one call at that time."""

    @pytest.mark.parametrize("identical, xi, phi", [
        (True, 0.5, 0.0), (True, 0.3, 1.0), (False, 0.5, 0.0), (False, 0.37, 2.4),
    ])
    def test_pair_matrix_and_impurity_equal_scalar_calls(self, identical, xi, phi):
        f_aa = _unit_amplitudes(1)
        f_bb = f_aa if identical else _unit_amplitudes(2)
        spec = SuperpositionSpec(xi, phi)
        m = reduced_pair_matrix(f_aa, f_bb, spec, GRID)
        scalar = [reduced_pair_matrix(a, b, spec, t) for a, b, t in zip(f_aa, f_bb, GRID)]
        for name in ("time", "p_ground", "p_b_excited", "p_a_excited", "coherence"):
            assert np.array_equal(getattr(m, name), [getattr(s, name) for s in scalar])
        assert np.array_equal(m.as_matrix(), [s.as_matrix() for s in scalar])
        assert np.array_equal(impurity(m), [impurity(s) for s in scalar])
        # the coherence is the complex product taken one time at a time
        c = np.sqrt(xi * (1.0 - xi)) * np.exp(1j * spec.phi)
        assert np.array_equal(m.coherence, [c * np.conj(a) * b for a, b in zip(f_aa, f_bb)])

    def test_identical_atoms_at_zero_phase_have_real_coherence(self):
        # at xi = 1/2, c = 1/2 scales exactly, so both products round alike
        f = _unit_amplitudes(3)
        m = reduced_pair_matrix(f, f, SuperpositionSpec(0.5, 0.0), GRID)
        assert np.all(m.coherence.imag == 0.0)

    def test_entropy_of_a_row_block_equals_row_by_row(self):
        # one summation order per row, whatever the block's height and layout
        spec = SuperpositionSpec(0.3, 0.9)
        for n_times, width in itertools.product([1, 64, 501, 2000], [12, 201, 2001]):
            rows = _unit_rows(4, n=n_times, width=width)
            times = np.linspace(0.0, 25.0, n_times)
            single = [single_atom_reduced(r, spec, t) for r, t in zip(rows, times)]
            for layout in (np.ascontiguousarray, np.asfortranarray):
                block = single_atom_reduced(layout(rows), spec, times)
                assert np.array_equal(block.row_norm_sq, [s.row_norm_sq for s in single])
                assert np.array_equal(von_neumann_entropy(block),
                                      [von_neumann_entropy(s) for s in single])

    def test_row_norms_do_not_depend_on_layout(self):
        # amplitude_row returns a column-major block: its row norms must be the
        # bits of a C-ordered copy, formed without a (T, N+1) float temporary
        rows = _unit_rows(12, n=2000, width=600)
        c_order, f_order = np.ascontiguousarray(rows), np.asfortranarray(rows)
        spec = SuperpositionSpec(0.5)
        times = np.linspace(0.0, 25.0, 2000)
        tracemalloc.start()
        try:
            by_f = single_atom_reduced(f_order, spec, times).row_norm_sq
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        by_c = single_atom_reduced(c_order, spec, times).row_norm_sq
        assert np.array_equal(by_f, by_c)
        assert peak < rows.size * 8 / 4

    def test_row_block_leaves_the_caller_array_writable(self):
        rows = _unit_rows(5, n=3)
        single_atom_reduced(rows, SuperpositionSpec(0.5), GRID[:3])
        assert rows.flags.writeable


class TestTimeGridInvariants:
    """A defect at one time of a grid raises, naming that time."""

    def test_oversized_amplitude(self):
        f = _unit_amplitudes(6)
        f[K] = 1.2
        with pytest.raises(DomainError, match=_names(K)):
            reduced_pair_matrix(_unit_amplitudes(7), f, SuperpositionSpec(0.4), GRID)

    def test_trace_defect(self):
        m = reduced_pair_matrix(_unit_amplitudes(8), _unit_amplitudes(9),
                                SuperpositionSpec(0.4, 1.0), GRID)
        p_ground = m.p_ground.copy()
        p_ground[K] += 1e-7
        with pytest.raises(InvariantViolation, match="trace .* " + _names(K)):
            ReducedAtomPairMatrix(time=m.time, p_ground=p_ground,
                                  p_b_excited=m.p_b_excited, p_a_excited=m.p_a_excited,
                                  coherence=m.coherence)

    def test_row_norm_defect(self):
        rows = _unit_rows(10)
        rows[K] *= 1.01
        with pytest.raises(InvariantViolation, match=_names(K)):
            single_atom_reduced(rows, SuperpositionSpec(0.5), GRID)

    def test_nan_row(self):
        rows = _unit_rows(11)
        rows[K, 3] = np.nan
        with pytest.raises(InvariantViolation, match="norm nan .*" + _names(K)):
            single_atom_reduced(rows, SuperpositionSpec(0.5), GRID)

    def test_scalar_inputs_still_raise(self):
        with pytest.raises(DomainError, match="at t=2.0"):
            reduced_pair_matrix(0.5, 1.2j, SuperpositionSpec(0.5), 2.0)
        with pytest.raises(InvariantViolation, match="at t=3.0"):
            single_atom_reduced(np.array([0.5, 0.5j]), SuperpositionSpec(0.5), 3.0)
