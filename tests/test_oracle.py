import copy

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
from dressedcavity import oracle
from dressedcavity.errors import freeze
from dressedcavity.oracle import _round_robin, jacobi_eigh


@pytest.fixture(scope="module")
def fig_decomp(fig_params):
    return diagonalize(build_form(fig_params))


class TestBuildForm:
    def test_single_mode_entries(self):
        # delta=0.1, g=0.5 puts the single field mode at 5; eta^2 = 10/pi
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=1)
        b = build_form(p).matrix
        eta_sq = 10.0 / np.pi
        assert b[0, 0] == pytest.approx(1.0 + eta_sq, rel=1e-14)
        assert b[1, 1] == pytest.approx(25.0, rel=1e-14)
        assert b[0, 1] == pytest.approx(-np.sqrt(eta_sq) * 5.0, rel=1e-14)

    def test_symmetric(self, fig_params):
        b = build_form(fig_params).matrix
        assert np.array_equal(b, b.T)


class TestJacobi:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 101])
    def test_each_pair_meets_once_per_sweep(self, n):
        schedule = _round_robin(n)
        # the seat formula against the circle method's seats, each round the
        # last one's seats 1 .. m - 1 rolled by one
        m = n + n % 2
        seats = np.zeros((m - 1, m), dtype=np.intp)
        seats[:, 1:] = [np.roll(np.arange(1, m), r) for r in range(m - 1)]
        facing = seats[:, ::-1][:, :m // 2]
        pairs = np.sort(np.stack((seats[:, :m // 2], facing), axis=-1), axis=-1)
        assert np.array_equal(schedule, pairs[pairs[..., 1] < n].reshape(m - 1, -1, 2))
        assert schedule.shape == (n - 1 + n % 2, n // 2, 2)
        for pairs in schedule:  # a round's pairs are disjoint
            assert len(np.unique(pairs)) == pairs.size
        p, q = schedule.reshape(-1, 2).T
        assert np.all((0 <= p) & (p < q) & (q < n))
        assert sorted(zip(p.tolist(), q.tolist())) == [
            (i, j) for i in range(n) for j in range(i + 1, n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 31])
    def test_small_and_odd_orders(self, rng, n):
        # an odd order pairs with a phantom index that never reaches the output
        x = rng.standard_normal((n, n))
        b = x + x.T + 2 * n * np.eye(n)
        lam, v = jacobi_eigh(b)
        assert lam.shape == (n,) and v.shape == (n, n)
        assert np.all(np.diff(lam) >= 0)
        assert lam == pytest.approx(np.linalg.eigvalsh(b), rel=1e-12)
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-13
        assert np.max(np.abs(b @ v - v * lam)) < 1e-12 * np.max(np.abs(lam))

    def test_decoupled_matrix_gives_identity_vectors(self):
        for diag in ([1.0, 25.0, 100.0], [4.0, 1.0, 9.0, 16.0]):
            lam, v = jacobi_eigh(np.diag(diag))
            assert np.array_equal(lam, np.sort(diag))
            assert np.array_equal(v, np.eye(len(diag))[:, np.argsort(diag)])

    def test_agrees_with_lapack(self, fig_decomp):
        lam_ref, v_ref = np.linalg.eigh(fig_decomp.form.matrix)
        assert fig_decomp.eigenvalues == pytest.approx(lam_ref, rel=1e-10)
        assert np.abs(fig_decomp.vectors) == pytest.approx(np.abs(v_ref), abs=1e-9)

    def test_sweep_cap(self, fig_params, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SWEEPS", 1)
        b = build_form(fig_params).matrix
        with pytest.raises(ConvergenceFailure, match="within 1 sweeps"):
            jacobi_eigh(b)


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
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=50)
        d = diagonalize(build_form(p))
        tm = build_matrix(solve_eigenfrequencies(p))
        for t in (0.0, 1.3, 7.7, 19.2):
            assert oracle_amplitude(d, "atom", "atom", t) == pytest.approx(
                amplitude_discrete(tm, "atom", "atom", t), abs=1e-8)


class TestCrossChecks:
    def test_all_pass_at_n30(self):
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=30)
        rows = run_cross_checks(p)
        assert {r.name for r in rows} >= {
            "spectrum_relative", "elements_absolute", "survival_amplitude_absolute"}
        for row in rows:
            assert row.passed, f"{row.name}: {row.max_err:.3e} > {row.tol:.1e}"

    @pytest.mark.parametrize("g, delta, n", [(0.02, 1e3, 100), (0.02, 1e3, 30),
                                             (0.02, 100.0, 100), (0.9, 1e-3, 100)])
    def test_all_pass_where_lapack_does_not(self, g, delta, n):
        """With numpy.linalg.eigh in place of the Jacobi oracle these points fail:
        eigenvector_ratio reads 1.1e-4 at (0.02, 1e3, 100), 4.1e-8 at (0.02, 1e3,
        30) and 2.8e-8 at (0.02, 100, 100), survival_amplitude_absolute 1.7e-8 at
        (0.9, 1e-3, 100), each against 1e-8.  Jacobi keeps the relative accuracy
        of the graded form's small eigenpairs; a QR-type solver that replaces it
        must pass here."""
        for row in run_cross_checks(DressedAtomParams(1.0, g, delta, n_modes=n)):
            assert row.passed, f"{row.name}: {row.max_err:.3e} > {row.tol:.1e}"

    def test_all_pass_where_the_top_root_hugs_omega_n(self):
        # the top root sits 8e-6 dw above omega_N; a ratio reference
        # eta omega_k / (omega_k^2 - lam) at the oracle's own eigenvalue
        # cancels there (7.6e-8), the pipeline's offset-built columns do not
        p = DressedAtomParams(1.0, 0.5, 1.2e-3, n_modes=94)
        rows = {row.name: row for row in run_cross_checks(p)}
        assert rows["eigenvector_ratio"].max_err < 1e-12
        for row in rows.values():
            assert row.passed, f"{row.name}: {row.max_err:.3e} > {row.tol:.1e}"

    @pytest.mark.parametrize("sampled", [0, 1, 32, -1])
    @pytest.mark.parametrize("name, field, step", [("direct_weight", "weights", 1e-13),
                                                   ("direct_residual", "offsets", 1e-12)])
    def test_a_moved_root_fails_its_direct_row(self, fig_params, monkeypatch, sampled, name,
                                               field, step):
        # the figure's spectrum with one sampled root's weight moved by 1e-13,
        # or its offset by 1e-12, relative, all else as the spectrum derived it:
        # root 0 (the root nearest omega_bar there), root 1, an inner and the top
        spec = solve_eigenfrequencies(fig_params)
        moved, values = copy.copy(spec), getattr(spec, field).copy()
        values[spec.direct_secular()[0][sampled]] *= 1.0 + step
        freeze(moved, **{field: values})
        monkeypatch.setattr(oracle, "solve_eigenfrequencies", lambda params: moved)
        rows = {row.name: row for row in run_cross_checks(fig_params)}
        assert not rows[name].passed

    def test_direct_rows_alone_above_the_cap(self, monkeypatch):
        # above the dense cap the Jacobi never runs, and the direct rows sum
        # the definition at 64 sampled roots
        monkeypatch.setattr(oracle.coupling, "MATRIX_MODE_CAP", 8)
        monkeypatch.setattr(oracle, "jacobi_eigh", lambda *a: pytest.fail("the Jacobi ran"))
        rows = run_cross_checks(DressedAtomParams(1.0, 0.5, 0.1, 100))
        assert [(row.name, row.passed) for row in rows] == [("direct_residual", True),
                                                            ("direct_weight", True)]
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, 0.5, 0.1, 100))
        roots = spec.direct_secular()[0]
        assert roots.size == 64 and {0, 1, 99, 100} <= set(roots.tolist())

    @pytest.mark.parametrize("n, residual, weight", [
        (8, "1.878456e-02", "8.631442e-02"), (64, "1.749667e-02", "5.598976e-02"),
        (200, "8.890160e-03", "3.065023e-02"), (6000, "3.560917e-04", "1.484903e-03"),
        (10**6, "1.753188e-06", "5.999610e-06")])
    def test_direct_rows_read_as_printed_before(self, monkeypatch, n, residual, weight):
        # the figure's system: both direct rows as oracle-check prints them, to
        # the digit, as they read while the oracle picked the sample and bounds
        monkeypatch.setattr(oracle.coupling, "MATRIX_MODE_CAP", 0)
        rows = run_cross_checks(DressedAtomParams(1.0, 0.5, 0.1, n))
        assert [(row.name, f"{row.max_err:.6e}") for row in rows] == [
            ("direct_residual", residual), ("direct_weight", weight)]
