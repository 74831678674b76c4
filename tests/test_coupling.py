import sys

import numpy as np
import pytest

from dressedcavity import (
    DivisionHazard,
    DomainError,
    DressedAtomParams,
    NormalizationFailure,
    RegimeViolation,
    approx_small_cavity_elements,
    atom_element,
    atom_weights,
    build_form,
    build_matrix,
    solve_eigenfrequencies,
    survival_trace,
)
from dressedcavity import coupling, spectrum
from dressedcavity.coupling import TransformMatrix
from dressedcavity.spectrum import ModeSpectrum, field_frequencies
from oracles import eig_sym_2x2

# frozen first-order element values at delta=0.1 (direct evaluation)
T00_SQ_APPROX = 0.8268292804508458
T1_SQ_APPROX = 0.1052751736614937
T2_SQ_APPROX = 0.026318793415373427

# atom weight of the lowest root at omega_bar=0.1, g=10, delta=1e-3, N=3000
# (40-digit mpmath at the exact root of the float64 parameters)
W0_FROZEN = 0.9979104047910538937889807

# eigenvector ratio t_k^N / t_atom^N of the top root at omega_bar=1, g=0.5,
# delta=1.2e-3, N=94 (40-digit mpmath at the exact root, float64 dw, eta and
# eta^2, omega_k = k dw), keyed by k
TOP_COLUMN_RATIO_FROZEN = {
    1: -0.000004424243824806823598120624,
    47: -0.0002772212194314452744331572,
    93: -0.01943942773208443963808683,
    94: -2404.704399609044415709321,
}


class TestAtomElement:
    def test_collapses_at_atom_frequency(self, fig_params):
        # Omega = omega_bar kills the detuning term entirely
        p = fig_params
        got = atom_element(p.omega_bar, p)
        expected = p.eta / np.sqrt(p.eta_sq + 4 * p.g**2)
        assert got == pytest.approx(expected * p.omega_bar / p.omega_bar, rel=1e-14)

    def test_positive_for_all_roots(self, fig_spectrum):
        p = fig_spectrum.params
        vals = np.array([atom_element(om, p) for om in fig_spectrum.bigomegas])
        assert np.all(vals > 0)

    def test_near_first_order_value_at_lowest_root(self, fig_spectrum):
        got = atom_element(fig_spectrum.bigomegas[0], fig_spectrum.params) ** 2
        assert got == pytest.approx(T00_SQ_APPROX, abs=0.01)

    def test_matches_normalized_element_to_truncation_order(self, fig_spectrum, fig_matrix):
        # the closed form is the untruncated normalization: expect O(1/N) gap
        closed = atom_element(fig_spectrum.bigomegas[0], fig_spectrum.params)
        built = fig_matrix.t[0, 0]
        assert closed == pytest.approx(built, rel=2e-3)
        assert closed != pytest.approx(built, rel=1e-6)

    def test_domain_error_on_impossible_frequency(self):
        # eta^2 > 2 omega_bar^2 makes the radicand negative near Omega -> 0
        p = DressedAtomParams.from_delta(omega_bar=0.1, g=5.0, delta=1.0, n_modes=3)
        with pytest.raises(DomainError):
            atom_element(1e-3, p)
        with pytest.raises(DomainError):
            atom_element(-1.0, p)


class TestFieldElement:
    """Field rows t_k^r = eta omega_k / (omega_k^2 - Omega_r^2) t_atom^r of build_matrix."""

    def test_low_frequency_limit(self):
        # Omega_0 ~ 1e-3 far below omega_1 = 500: t_k^0 / t_atom^0 -> eta / omega_k
        p = DressedAtomParams.from_delta(omega_bar=1e-3, g=0.5, delta=1e-3, n_modes=8)
        tm = build_matrix(solve_eigenfrequencies(p))
        got = tm.t[1:, 0] / tm.t[0, 0]
        assert got == pytest.approx(p.eta / field_frequencies(p), rel=1e-6)

    def test_sign_flips_above_asymptote(self, fig_spectrum, fig_matrix):
        below = fig_spectrum.bigomegas[None, :] < fig_spectrum.omegas[:, None]
        assert np.all(fig_matrix.t[1:, :][below] > 0)
        assert np.all(fig_matrix.t[1:, :][~below] < 0)

    def test_division_hazard(self):
        # root 2 within 1e-13 relative above its asymptote omega_2
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=4)
        offsets = np.array([0.5, 0.5, 2e-13, 0.5, 0.2])
        spec = ModeSpectrum(params=p, asymptotes=[0, 1, 2, 3, 4], offsets=offsets)
        with pytest.raises(DivisionHazard):
            build_matrix(spec)

    def test_top_column_matches_high_precision_ratio(self):
        # the top root sits 8.1e-6 dw above omega_N; each element of its
        # column is eta omega_k / (omega_k^2 - Omega_N^2) times the atom element
        p = DressedAtomParams.from_delta(1.0, 0.5, 1.2e-3, n_modes=94)
        tm = build_matrix(solve_eigenfrequencies(p))
        k = np.array(list(TOP_COLUMN_RATIO_FROZEN))
        ratio = tm.t[k, -1] / tm.t[0, -1]
        ref = np.array(list(TOP_COLUMN_RATIO_FROZEN.values()))
        assert np.max(np.abs(ratio / ref - 1.0)) <= 1e-13

    def test_first_order_value(self, fig_spectrum, fig_matrix):
        got = fig_matrix.t[1, 0] ** 2
        assert got == pytest.approx(T1_SQ_APPROX, abs=0.01)


class TestBuildMatrix:
    def test_two_by_two_against_closed_form(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=1)
        spec = solve_eigenfrequencies(p)
        tm = build_matrix(spec)
        b = build_form(p).matrix
        lam, vecs = eig_sym_2x2(b[0, 0], b[0, 1], b[1, 1])
        assert spec.bigomegas**2 == pytest.approx(lam, rel=1e-12)
        assert tm.t == pytest.approx(vecs, abs=1e-12)

    def test_columns_normalized(self, fig_matrix):
        norms = np.sum(fig_matrix.t**2, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_atom_row_closure(self, fig_matrix):
        assert abs(np.sum(fig_matrix.t[0, :] ** 2) - 1.0) < 1e-8
        assert np.max(np.abs(1.0 - np.sum(fig_matrix.t**2, axis=1))) < 1e-8

    def test_rows_orthonormal_n500(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=500)
        tm = build_matrix(solve_eigenfrequencies(p))
        gram = tm.t @ tm.t.T
        assert np.max(np.abs(gram - np.eye(501))) < 1e-6

    def test_columns_orthogonal(self, fig_matrix):
        gram = fig_matrix.t.T @ fig_matrix.t
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    def test_sign_convention(self, fig_matrix):
        assert np.all(fig_matrix.t[0, :] > 0)

    def test_atom_row_is_the_root_of_the_weights(self, fig_spectrum, fig_matrix):
        assert np.array_equal(fig_matrix.t[0], np.sqrt(fig_spectrum.weights))

    def test_rejects_a_nan_entry(self, fig_spectrum, fig_matrix):
        t = fig_matrix.t.copy()
        t[5, 7] = np.nan
        with pytest.raises(NormalizationFailure, match="column 7 norm deviates by nan"):
            TransformMatrix(spectrum=fig_spectrum, t=t)

    def test_reconstructs_quadratic_form(self, fig_spectrum, fig_matrix):
        b = build_form(fig_spectrum.params).matrix
        recon = fig_matrix.t @ np.diag(fig_spectrum.bigomegas**2) @ fig_matrix.t.T
        scale = fig_spectrum.omegas[-1] ** 2
        assert np.max(np.abs(recon - b)) < 1e-6 * scale

    def test_mode_cap(self, monkeypatch):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=6)
        spec = solve_eigenfrequencies(p)
        monkeypatch.setattr(coupling, "MATRIX_MODE_CAP", 5)
        with pytest.raises(ValueError):
            build_matrix(spec)


class TestAtomWeights:
    def test_matches_matrix_row(self, fig_spectrum, fig_matrix):
        w = atom_weights(fig_spectrum)
        assert w == pytest.approx(fig_matrix.t[0, :] ** 2, abs=1e-12)

    def test_closed_form_path(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=300)
        spec = solve_eigenfrequencies(p)
        k = np.arange(1, 301)[:, None]
        m, s = spec.asymptotes, spec.offsets
        gap = ((k - m) - s) * ((k + m) + s)  # (omega_k^2 - Omega_r^2) / dw^2
        direct = 1.0 / (1.0 + p.eta_sq / p.delta_omega**2 * np.sum(k**2 / gap**2, axis=0))
        assert atom_weights(spec) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("n, g, delta", [(3000, 0.01, 1000.0),
                                             (20_000, 0.05, 1000.0),
                                             (5218, 0.060, 810.0)])
    def test_weights_sum_to_one_with_top_root_far_above_omega_n(self, n, g, delta):
        # the top root lies above omega_N, where the cotangent/digamma form
        # of the mode sums has spurious poles
        spec = solve_eigenfrequencies(DressedAtomParams.from_delta(1.0, g, delta, n_modes=n))
        assert spec.bigomegas[-1] > spec.omegas[-1]
        assert abs(float(np.sum(atom_weights(spec))) - 1.0) <= 1e-12

    def test_lowest_root_weight_far_below_omega_1(self):
        # Omega_0 / omega_1 ~ 1e-5: the cotangent/digamma mode sums cancel there
        spec = solve_eigenfrequencies(DressedAtomParams.from_delta(0.1, 10.0, 1e-3, n_modes=3000))
        w = atom_weights(spec)
        assert abs(w[0] - W0_FROZEN) <= 1e-13
        assert abs(float(np.sum(w)) - 1.0) <= 1e-12

    def test_weights_are_the_spectrum_weights(self, fig_spectrum):
        w = atom_weights(fig_spectrum)
        assert np.array_equal(w, fig_spectrum.weights)
        assert w.flags.writeable and not fig_spectrum.weights.flags.writeable

    def test_one_slope_evaluation_per_root(self):
        # the solver's Newton check and atom_weights both read the weights the
        # spectrum derives once, with newton_rel, from one evaluation of S and
        # S2 per root: one call per root set (the outer pair, then the 63 inner
        # roots as one block).  Inside the solve, the outer pair's one-pole
        # splits also take S2, each over at most the two outer roots; those
        # are counted apart.  Calls of either sum kernel are counted by code
        # object and attributed to the nearest of the two callers on the
        # stack, so a call through any module's binding of a kernel is seen
        codes = {spectrum._closed_sum.__code__, spectrum._direct_sum.__code__}
        stages = {spectrum._bisect.__code__: "solve", ModeSpectrum.__post_init__.__code__: "derive"}
        sizes = {"solve": [], "derive": [], "other": []}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in codes and frame.f_locals["powers"] == 2:
                caller = frame.f_back
                while caller is not None and caller.f_code not in stages:
                    caller = caller.f_back
                stage = "other" if caller is None else stages[caller.f_code]
                sizes[stage].append(frame.f_locals["s"].size)

        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=64)
        sys.setprofile(count)
        try:
            spec = solve_eigenfrequencies(p)
            survival_trace(spec, np.linspace(0.0, 5.0, 9), atom_weights(spec))
        finally:
            sys.setprofile(None)
        assert sizes["derive"] == [2, 63]
        assert sizes["other"] == []
        assert all(size <= 2 for size in sizes["solve"])


class TestSmallCavityElements:
    def test_frozen_values(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=4)
        els = approx_small_cavity_elements(p, 2)
        assert els[0] == pytest.approx(T00_SQ_APPROX, rel=1e-12)
        assert els[1] == pytest.approx(T1_SQ_APPROX, rel=1e-12)
        assert els[2] == pytest.approx(T2_SQ_APPROX, rel=1e-12)

    def test_decoupling_limit(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 1e-10, n_modes=2)
        assert approx_small_cavity_elements(p, 1)[0] == pytest.approx(1.0, abs=1e-9)

    def test_weights_close_to_unity(self):
        # with the infinite tail the first-order weights normalize exactly
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=2)
        els = approx_small_cavity_elements(p, 100_000)
        assert np.sum(els) == pytest.approx(1.0, abs=2e-6)

    def test_regime_gate(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.4, n_modes=2)
        with pytest.raises(RegimeViolation):
            approx_small_cavity_elements(p, 5)
        p_ok = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=2)
        with pytest.raises(ValueError):
            approx_small_cavity_elements(p_ok, 0)

    def test_tracks_exact_elements_at_small_delta(self):
        delta = 0.05
        p = DressedAtomParams.from_delta(1.0, 0.5, delta, n_modes=400)
        tm = build_matrix(solve_eigenfrequencies(p))
        els = approx_small_cavity_elements(p, 20)
        exact = np.concatenate(([tm.t[0, 0] ** 2], tm.t[1:21, 0] ** 2))
        assert np.max(np.abs(els - exact) / exact) < 10 * delta
