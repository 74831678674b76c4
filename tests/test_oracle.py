import numpy as np
import pytest

from dressedcavity import (
    ConvergenceFailure,
    DressedAtomParams,
    InvariantViolation,
    amplitude_discrete,
    build_form,
    build_matrix,
    diagonalize,
    field_frequencies,
    oracle_amplitude,
    run_cross_checks,
    solve_eigenfrequencies,
)
from dressedcavity.oracle import jacobi_eigh


@pytest.fixture(scope="module")
def fig_decomp(fig_params):
    return diagonalize(build_form(fig_params))


class TestBuildForm:
    def test_single_mode_entries(self):
        # delta=0.1, g=0.5 puts the single field mode at 5; eta^2 = 10/pi
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=1)
        b = build_form(p).matrix
        eta_sq = 10.0 / np.pi
        assert b[0, 0] == pytest.approx(1.0 + eta_sq, rel=1e-14)
        assert b[1, 1] == pytest.approx(25.0, rel=1e-14)
        assert b[0, 1] == pytest.approx(-np.sqrt(eta_sq) * 5.0, rel=1e-14)

    def test_symmetric(self, fig_params):
        b = build_form(fig_params).matrix
        assert np.array_equal(b, b.T)


class TestJacobi:
    def test_decoupled_matrix_gives_identity_vectors(self):
        lam, v = jacobi_eigh(np.diag([1.0, 25.0, 100.0]))
        assert lam == pytest.approx([1.0, 25.0, 100.0])
        assert v == pytest.approx(np.eye(3))

    def test_agrees_with_lapack(self, fig_params):
        b = build_form(fig_params).matrix
        lam, v = jacobi_eigh(b)
        lam_ref, v_ref = np.linalg.eigh(b)
        assert lam == pytest.approx(lam_ref, rel=1e-10)
        assert np.abs(v) == pytest.approx(np.abs(v_ref), abs=1e-9)

    def test_sweep_cap(self, fig_params):
        b = build_form(fig_params).matrix
        with pytest.raises(ConvergenceFailure):
            jacobi_eigh(b, max_sweeps=1)


class TestDiagonalize:
    def test_residual_and_signs(self, fig_params, fig_decomp):
        d = fig_decomp
        b = d.form.matrix
        resid = np.max(np.abs(b @ d.vectors - d.vectors * d.eigenvalues))
        assert resid <= 1e-10 * np.max(np.abs(d.eigenvalues))
        assert np.all(d.vectors[0, :] > 0)

    def test_eigenvector_ratio_identity(self, fig_params, fig_decomp):
        d = fig_decomp
        wk = fig_params.delta_omega * np.arange(1, fig_params.n_modes + 1)
        worst = 0.0
        for r in range(fig_params.n_modes + 1):
            expected = fig_params.eta * wk / (wk**2 - d.eigenvalues[r])
            got = d.vectors[1:, r] / d.vectors[0, r]
            worst = max(worst, np.max(np.abs(got - expected) / (1 + np.abs(expected))))
        assert worst < 1e-8

    def test_interlaces_like_the_solver(self, fig_params, fig_decomp):
        om, wk = fig_decomp.omegas, field_frequencies(fig_params)
        assert om[0] < wk[0]
        assert np.all(om[1:] > wk)
        assert np.all(om[1:-1] < wk[1:])

    def test_determinant_identity(self, fig_params, fig_decomp):
        # product of normal-mode squares equals omega_bar^2 prod omega_k^2
        d = fig_decomp
        wk = fig_params.delta_omega * np.arange(1, fig_params.n_modes + 1)
        lhs = np.sum(np.log(d.eigenvalues))
        rhs = 2 * np.log(fig_params.omega_bar) + 2 * np.sum(np.log(wk))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_reconstruction(self, fig_params, fig_decomp):
        d = fig_decomp
        recon = d.vectors @ np.diag(d.eigenvalues) @ d.vectors.T
        scale = np.max(np.abs(d.eigenvalues))
        assert np.max(np.abs(recon - d.form.matrix)) < 1e-8 * scale


class TestOracleAmplitude:
    def test_identity_at_t0(self, fig_params, fig_decomp):
        d = fig_decomp
        assert oracle_amplitude(d, "atom", "atom", 0.0) == pytest.approx(1.0, abs=1e-10)
        assert oracle_amplitude(d, "atom", 3, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_unitarity(self, fig_params, fig_decomp, rng):
        d = fig_decomp
        n = fig_params.n_modes
        for t in rng.uniform(0, 30, 4):
            total = sum(abs(oracle_amplitude(d, "atom", nu, t)) ** 2
                        for nu in ["atom", *range(1, n + 1)])
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("label", ["field", -1, 201, 2.0, 0.0, True])
    def test_rejects_the_labels_the_pipeline_rejects(self, fig_decomp, label):
        with pytest.raises(ValueError, match="row label must be"):
            oracle_amplitude(fig_decomp, "atom", label, 0.0)

    def test_matches_pipeline_amplitude(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=50)
        d = diagonalize(build_form(p))
        tm = build_matrix(solve_eigenfrequencies(p))
        for t in (0.0, 1.3, 7.7, 19.2):
            assert oracle_amplitude(d, "atom", "atom", t) == pytest.approx(
                amplitude_discrete(tm, "atom", "atom", t), abs=1e-8)


class TestCrossChecks:
    def test_all_pass_at_n30(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=30)
        rows = run_cross_checks(p)
        assert {r.name for r in rows} >= {
            "spectrum_relative", "elements_absolute", "survival_amplitude_absolute"}
        for row in rows:
            assert row.passed, f"{row.name}: {row.max_err:.3e} > {row.tol:.1e}"

    def test_all_pass_where_the_top_root_hugs_omega_n(self):
        # the top root sits 8e-6 dw above omega_N; a ratio reference
        # eta omega_k / (omega_k^2 - lam) at the oracle's own eigenvalue
        # cancels there (7.6e-8), the pipeline's offset-built columns do not
        p = DressedAtomParams.from_delta(1.0, 0.5, 1.2e-3, n_modes=94)
        rows = {row.name: row for row in run_cross_checks(p)}
        assert rows["eigenvector_ratio"].max_err < 1e-12
        for row in rows.values():
            assert row.passed, f"{row.name}: {row.max_err:.3e} > {row.tol:.1e}"
