import re

import numpy as np
import pytest

from dressedcavity import (
    DomainError,
    InvariantViolation,
    ReducedAtomPairMatrix,
    SuperpositionSpec,
    amplitude_row,
    entanglement_entropy,
    impurity,
    impurity_identical,
    reduced_pair_matrix,
    single_atom_reduced,
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
        rows = _unit_rows(4)
        spec = SuperpositionSpec(0.3, 0.9)
        block = single_atom_reduced(rows, spec, GRID)
        single = [single_atom_reduced(r, spec, t) for r, t in zip(rows, GRID)]
        assert np.array_equal(block.row_norm_sq, [s.row_norm_sq for s in single])
        assert np.array_equal(von_neumann_entropy(block),
                              [von_neumann_entropy(s) for s in single])

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
