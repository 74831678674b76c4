import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from dressedcavity import (
    DomainError,
    DressedAtomParams,
    InvariantViolation,
    NormalizationFailure,
    amplitude_row,
    amplitude_trace,
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
from oracles import eig_sym_2x2, exact_deviations, gram_deviation
from test_dynamics import T00_SQ_APPROX, T1_SQ_APPROX

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
        p = DressedAtomParams(omega_bar=0.1, g=5.0, delta=1.0, n_modes=3)
        with pytest.raises(DomainError):
            atom_element(1e-3, p)
        with pytest.raises(DomainError):
            atom_element(-1.0, p)


class TestFieldElement:
    """Field rows t_k^r = eta omega_k / (omega_k^2 - Omega_r^2) t_atom^r of build_matrix."""

    def test_low_frequency_limit(self):
        # Omega_0 ~ 1e-3 far below omega_1 = 500: t_k^0 / t_atom^0 -> eta / omega_k
        p = DressedAtomParams(omega_bar=1e-3, g=0.5, delta=1e-3, n_modes=8)
        tm = build_matrix(solve_eigenfrequencies(p))
        got = tm.t[1:, 0] / tm.t[0, 0]
        assert got == pytest.approx(p.eta / field_frequencies(p), rel=1e-6)

    def test_sign_flips_above_asymptote(self, fig_spectrum, fig_matrix):
        below = fig_spectrum.bigomegas[None, :] < field_frequencies(fig_spectrum.params)[:, None]
        assert np.all(fig_matrix.t[1:, :][below] > 0)
        assert np.all(fig_matrix.t[1:, :][~below] < 0)

    def test_division_hazard(self):
        # a root on its asymptote would divide its column by a zero gap; the
        # spectrum refuses it, on the carried offset, before any division
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=4)
        offsets = np.array([0.5, 0.5, 0.0, 0.5, 0.2])
        with pytest.raises(InvariantViolation, match=r"^root 2 at offset 0\.0 from omega_2 "):
            ModeSpectrum(params=p, asymptotes=[0, 1, 2, 3, 4], offsets=offsets)

    def test_top_column_matches_high_precision_ratio(self):
        # the top root sits 8.1e-6 dw above omega_N; each element of its
        # column is eta omega_k / (omega_k^2 - Omega_N^2) times the atom element
        p = DressedAtomParams(1.0, 0.5, 1.2e-3, n_modes=94)
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
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=1)
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
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=500)
        tm = build_matrix(solve_eigenfrequencies(p))
        gram = tm.t @ tm.t.T
        assert np.max(np.abs(gram - np.eye(501))) < 1e-6

    def test_build_peaks_below_one_and_a_quarter_dense_matrices(self):
        # t is the one (N+1)^2 array: it is formed into itself a block of rows
        # at a time, and the checks hold O(N) arrays, never a t * t or a Gram
        # t t^T
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=1500)
        spec = solve_eigenfrequencies(p)
        tracemalloc.start()
        try:
            build_matrix(spec).t
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 1501**2 * 8

    def test_rows_record_above_the_cap_peaks_far_below_one_dense_matrix(self):
        # the record, rows mu and nu, the column bounds and the orthogonality
        # bound hold O(N) arrays, so no cap applies
        n = coupling.MATRIX_MODE_CAP + 1
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, 0.5, 0.1, n_modes=n))
        tracemalloc.start()
        try:
            tm = build_matrix(spec)
            tm.row(2), tm.row(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.02 * (n + 1)**2 * 8

    def test_build_holds_few_arrays(self):
        # the weights' bounds and the O(N) orthogonality bound work in place,
        # so the record's build peaks near the residuals' raise, a few arrays
        # of N+1 floats, as the solve does
        p = DressedAtomParams(1.0, 0.4, 0.5, 100_000)
        spec = solve_eigenfrequencies(p)
        build_matrix(spec)  # caches and lazy imports out of the count
        tracemalloc.start()
        try:
            build_matrix(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 8 * (p.n_modes + 1)

    def test_columns_orthogonal(self, fig_matrix):
        gram = fig_matrix.t.T @ fig_matrix.t
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    def test_sign_convention(self, fig_matrix):
        assert np.all(fig_matrix.t[0, :] > 0)

    def test_atom_row_is_the_root_of_the_weights(self, fig_spectrum, fig_matrix):
        assert np.array_equal(fig_matrix.t[0], np.sqrt(fig_spectrum.weights))

    def test_the_dense_path_forms_each_entry_once(self, monkeypatch):
        # the record forms no entry: its column bounds come from the weights';
        # t forms each of its N(N + 1) field entries once
        n = 600
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, 0.5, 0.1, n))
        field_rows, formed = coupling._field_rows, []

        def counted(spectrum, k, out=None):
            block = field_rows(spectrum, k, out)
            formed.append(block.size)
            return block

        monkeypatch.setattr(coupling, "_field_rows", counted)
        tm = build_matrix(spec)
        assert formed == []
        tm.t
        assert sum(formed) == n * (n + 1)

    def test_reconstructs_quadratic_form(self, fig_spectrum, fig_matrix):
        b = build_form(fig_spectrum.params).matrix
        recon = fig_matrix.t @ np.diag(fig_spectrum.bigomegas**2) @ fig_matrix.t.T
        scale = field_frequencies(fig_spectrum.params)[-1] ** 2
        assert np.max(np.abs(recon - b)) < 1e-6 * scale

    def test_mode_cap(self, monkeypatch):
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=6)
        spec = solve_eigenfrequencies(p)
        monkeypatch.setattr(coupling, "MATRIX_MODE_CAP", 5)
        tm = build_matrix(spec)
        with pytest.raises(ValueError, match=r"exceeds the dense-matrix cap 5; .* row\(\)"):
            tm.t
        # rows are not capped
        assert tm.row(6).shape == (7,)
        assert tm.unitarity_margin(6) <= 1e-12

    def test_a_record_above_the_cap_serves_its_rows(self, monkeypatch):
        # only the whole matrix is capped: rows, margins and pair traces of a
        # record above the cap come from its rows alone
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, 0.5, 0.1, 12))
        dense = build_matrix(spec).t
        monkeypatch.setattr(coupling, "MATRIX_MODE_CAP", 8)
        tm = build_matrix(spec)
        times = np.linspace(0.0, 5.0, 11)
        phases = np.exp(-1j * np.outer(times, spec.bigomegas))
        for k in (0, 1, 6, 12):
            assert np.array_equal(tm.row(k), dense[k])
            assert tm.unitarity_margin(k) <= 1e-12
            for j in (0, 1, 6, 12):
                f = amplitude_trace(tm, k, j, times).values
                assert np.max(np.abs(f - phases @ (dense[k] * dense[j]))) <= 1e-13
        for whole in (lambda: tm.t, lambda: amplitude_row(tm, 0, times)):
            with pytest.raises(ValueError, match="exceeds the dense-matrix cap 8"):
                whole()


class TestRowLabels:
    """One parser names every row of row() and unitarity_margin(), on a record
    that has formed its whole matrix and on one that forms only rows."""

    @pytest.fixture(params=["dense", "rows"])
    def record(self, request, fig_spectrum, fig_matrix):
        if request.param == "dense":
            fig_matrix.t  # formed and kept
            return fig_matrix
        return build_matrix(fig_spectrum)

    def test_labels_name_one_row(self, record, fig_matrix):
        formed = "t" in vars(record)
        for labels, k in ((("atom", 0), 0), ((3, "3", np.int64(3)), 3)):
            for label in labels:
                assert np.array_equal(record.row(label), fig_matrix.t[k])
                assert record.unitarity_margin(label) == record.unitarity_margin(k)
        # a row never forms, nor reads, the whole matrix
        assert ("t" in vars(record)) == formed

    @pytest.mark.parametrize("label", [0.7, True, -1, 201, "x"])
    def test_refuses_what_names_no_row(self, record, label):
        with pytest.raises(ValueError, match="row label"):
            record.row(label)
        with pytest.raises(ValueError, match="row label"):
            record.unitarity_margin(label)

    @pytest.mark.parametrize("weight", ["zero", "negative"])
    def test_a_weight_at_or_below_zero_is_refused(self, record, weight, monkeypatch):
        # t_atom = sqrt(w), a factor of every entry of column 7: w = 0 would
        # leave it zero, w < 0 NaN; the spectrum refuses either, naming the root
        derive = spectrum._secular_sets

        def broken(m, s, params):
            out = derive(m, s, params)
            out[1, 7] = np.inf if weight == "zero" else -out[1, 7]
            return out

        monkeypatch.setattr(spectrum, "_secular_sets", broken)
        with pytest.raises(NormalizationFailure, match="^root 7 atom weight "):
            ModeSpectrum(record.spectrum.params, record.spectrum.asymptotes,
                         record.spectrum.offsets)


def long_double_row_deviation(tm, mu, times):
    """max over ``times`` of |sum_nu |f_mu_nu(t)|^2 - 1| for the stored t,
    f = t D t_mu, in long double: the O(N^2)-a-time route to the row norms."""
    t = tm.t.astype(np.longdouble)
    angle = np.outer(tm.spectrum.bigomegas, times).astype(np.longdouble)
    re, im = t @ (t[mu, :, None] * np.cos(angle)), t @ (t[mu, :, None] * np.sin(angle))
    return float(np.max(np.abs(np.sum(re * re + im * im, axis=0) - 1.0)))


# the entropy drift scan's spectra (test_bipartite.TestEntropyDriftBound) at N <= 200
DRIFT_SCAN = list(itertools.product([1e-9, 0.02, 0.9, 5.0], [1e-3, 1.0, 1e3], [1, 8, 200]))


class TestOrthogonalityBound:
    """The O(N) bound from the secular residuals, Montgomery-Vaughan's
    inequality and the heavy roots' pair sums against the O(N^3) GEMM Gram
    and long-double row norms, and the column bound against the stored
    columns' exact norms."""

    @pytest.mark.parametrize("g, delta, n", DRIFT_SCAN + [
        (g, delta, 2048) for g, delta, _ in DRIFT_SCAN[::3]])
    def test_row_margins_bound_the_long_double_row_norms(self, g, delta, n):
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        tm = build_matrix(solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n)))
        # at N = 2048 the atom row on a few times: each time is an O(N^2) pass
        rows = {0, min(3, n), n // 2, n} if n <= 200 else {0}
        times = np.linspace(0.0, 25.0, 26 if n <= 200 else 4)
        for mu in rows:
            assert long_double_row_deviation(tm, mu, times) <= tm.unitarity_margin(mu)

    @pytest.mark.parametrize("g, delta, n", DRIFT_SCAN)
    def test_global_bound_covers_the_long_double_gram(self, g, delta, n):
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is no wider than double here")
        tm = build_matrix(solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n)))
        t = tm.t.astype(np.longdouble)
        gram = t.T @ t - np.eye(n + 1, dtype=np.longdouble)
        assert np.linalg.norm(gram.astype(float), 2) <= tm.orthogonality_bound

    @pytest.mark.parametrize("signs", ["random", "split"])
    @pytest.mark.parametrize("heavy", [1, coupling._HEAVY])
    @pytest.mark.parametrize("g, delta, n", [(0.5, 0.1, 200), (0.02, 1e3, 200), (0.9, 30.0, 300),
                                             (1e-9, 1e-3, 64), (5.0, 1.0, 300)])
    def test_off_diagonal_bound_holds_at_any_residuals(self, g, delta, n, heavy, signs,
                                                        monkeypatch):
        # residuals of 1e-8 dw^2, far above rounding, of random signs or of one
        # sign on each side of the heaviest root: the bound covers the dense
        # off-diagonal Gram they give, its 2-norm and its form at a row's
        # weights with the signs of its top eigenvector; with one heavy root
        # the inequality takes nearly every pair (at N = 300, delta = 30 the
        # atom row's form is 4x what the heavy pairs alone would bound)
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n))
        tm = build_matrix(spec)
        rng = np.random.default_rng(n)
        a = np.sqrt(spec.weights)
        phi = 1e-8 * spec.params.delta_omega**2 * rng.uniform(0.5, 1.0, n + 1)
        sign = (rng.choice([-1.0, 1.0], n + 1) if signs == "random"
                else np.where(np.arange(n + 1) < np.argmax(a), 1.0, -1.0))
        f = phi * sign / spec.params.delta_omega**2
        m, s = spec.asymptotes, spec.offsets
        gap = (np.subtract.outer(m, m) + np.subtract.outer(s, s)) * np.add.outer(m + s, m + s)
        np.fill_diagonal(gap, 1.0)
        gram = -np.outer(a, a) * np.subtract.outer(f, f) / gap
        raised = phi / spec.params.delta_omega**2  # the gaps' units, as the record keeps it
        monkeypatch.setattr(coupling, "_HEAVY", heavy)
        assert np.abs(np.linalg.eigvalsh(gram)).max() <= coupling._off_diagonal(spec, raised)
        for mu in (0, n // 2):
            x = tm.row(mu)
            values, vectors = np.linalg.eigh(x[:, None] * gram * x)
            z = x * np.where(vectors[:, np.argmax(np.abs(values))] >= 0.0, 1.0, -1.0)
            assert abs(z @ gram @ z) <= coupling._off_diagonal(spec, raised, x)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 100, 600])
    @pytest.mark.parametrize("delta", [1e-3, 1e3])
    @pytest.mark.parametrize("g", [1e-9, 0.9, 0.02])
    def test_never_below_the_gemm_gram(self, g, delta, n):
        tm = build_matrix(solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n)))
        gemm = gram_deviation(tm.t)
        assert gemm <= tm.orthogonality_bound <= 1e-13
        # each column's bound, from the weights' rounding, bounds the stored
        # array's column, and lies close to it
        exact = exact_deviations(tm.t)
        bound = tm._deviations
        assert np.all(exact <= bound) and np.all(bound <= exact + 1e-14)
        assert tm.column_deviation == bound.max()

    @pytest.mark.parametrize("n", [62, 63, 64, 65, 126, 127, 128])
    @pytest.mark.parametrize("delta", [1e-3, 0.1, 1.0, 1e3])
    @pytest.mark.parametrize("g", [1e-6, 0.02, 0.5, 0.99, 5.0])
    def test_holds_from_62_to_128_modes(self, g, delta, n):
        # a grid of couplings and spacings at N = 62-65 and 126-128
        tm = build_matrix(solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n)))
        assert exact_deviations(tm.t).max() <= tm.column_deviation
        assert gram_deviation(tm.t) <= tm.orthogonality_bound

    @pytest.mark.parametrize("g, delta, n", [(1e-30, 1e-29, 16), (0.01, 1e3, 3000)],
                             ids=["resonance", "top-root-far-above"])
    def test_column_bound_at_the_edges_of_the_domain(self, g, delta, n):
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n))
        tm = build_matrix(spec)
        exact = exact_deviations(tm.t)
        bound = tm._deviations
        assert np.all(exact <= bound) and np.all(bound <= exact + 1e-14)
        assert gram_deviation(tm.t) <= tm.orthogonality_bound

    def test_weak_coupling_on_resonance(self):
        # omega_bar = omega_10 and g = 1e-30: roots 9 and 10 hug omega_10 from
        # both sides, 4e-15 dw apart, so their gap must come from the offsets,
        # and F's rounding from the detuning it is formed from
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, 1e-30, 1e-29, 16))
        assert spec.asymptotes[9] == spec.asymptotes[10] == 10
        tm = build_matrix(spec)
        assert gram_deviation(tm.t) <= tm.orthogonality_bound <= 1e-6

    def test_rows_record_matches_the_dense_matrix(self):
        # row(k) and t form the entries whose column norms the record bounds,
        # bit for bit
        for g, delta, n in ((1e-9, 1e3, 50), (0.5, 0.1, 200), (0.9, 1e-3, 600)):
            tm = build_matrix(solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n)))
            rows = np.array([tm.row(k) for k in range(n + 1)])
            assert np.array_equal(rows, tm.t)
            exact = exact_deviations(rows).max()
            assert exact <= tm.column_deviation <= exact + 1e-14

    def test_unitarity_margin_bounds_the_row_norm_at_every_time(self, fig_spectrum,
                                                                fig_matrix):
        times = np.linspace(0.0, 25.0, 101)
        for mu in (0, 3, 200):
            row = amplitude_row(fig_matrix, mu, times)
            deviation = np.max(np.abs(np.sum(np.abs(row) ** 2, axis=1) - 1.0))
            margin = build_matrix(fig_spectrum).unitarity_margin(mu)
            assert deviation <= margin <= 3e-14
            assert fig_matrix.unitarity_margin(mu) == margin

    @pytest.mark.parametrize("omega_bar, g, delta, n", [
        (1.0, 1e-9, 0.1, 8), (1.0, 0.02, 1e3, 40), (1.0, 0.9, 1e-3, 40), (0.1, 10.0, 1e-3, 30),
        (1.0, 1e-30, 1e-29, 16)])
    def test_raised_residuals_cover_the_exact_secular_function(self, omega_bar, g, delta, n):
        # |F| at each root's carried offset, raised by its rounding bound, is at
        # least the 40-digit F there (float64 omega_bar, dw and eta)
        mpmath = pytest.importorskip("mpmath")
        spec = solve_eigenfrequencies(DressedAtomParams(omega_bar, g, delta, n))
        p, raised = spec.params, spec.raised_residuals()
        with mpmath.workdps(40):
            wb, dw, eta = (mpmath.mpf(float(v)) for v in (p.omega_bar, p.delta_omega, p.eta))
            for r in range(n + 1):
                m, s = int(spec.asymptotes[r]), mpmath.mpf(float(spec.offsets[r]))
                lam = ((m + s) * dw) ** 2
                total = mpmath.fsum(1 / (((k - m) - s) * (k + m + s) * dw**2)
                                    for k in range(1, n + 1))
                assert abs(wb**2 - lam - eta**2 * lam * total) <= raised[r]


class TestAtomWeights:
    def test_matches_matrix_row(self, fig_spectrum, fig_matrix):
        w = atom_weights(fig_spectrum)
        assert w == pytest.approx(fig_matrix.t[0, :] ** 2, abs=1e-12)

    def test_closed_form_path(self):
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=300)
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
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n_modes=n))
        assert spec.bigomegas[-1] > field_frequencies(spec.params)[-1]
        assert abs(float(np.sum(atom_weights(spec))) - 1.0) <= 1e-12

    def test_lowest_root_weight_far_below_omega_1(self):
        # Omega_0 / omega_1 ~ 1e-5: the cotangent/digamma mode sums cancel there
        spec = solve_eigenfrequencies(DressedAtomParams(0.1, 10.0, 1e-3, n_modes=3000))
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
        # S2 per root: one call per outer root (root 0, the top root), then one
        # for the 63 inner roots as one block.  Inside the solve, the outer
        # pair's one-pole splits also take S2, one root a call; those are
        # counted apart.  Calls of any sum kernel, the O(N) definition
        # included, are counted by code object and attributed to the nearest
        # of the two callers on the stack, so a call through any module's
        # binding of a kernel is seen
        codes = {spectrum._closed_sum.__code__, spectrum._outer_sum.__code__,
                 spectrum._direct_sum.__code__}
        stages = {spectrum._bisect.__code__: "solve", ModeSpectrum.__post_init__.__code__: "derive"}
        sizes = {"solve": [], "derive": [], "other": []}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in codes and frame.f_locals["powers"] == 2:
                caller = frame.f_back
                while caller is not None and caller.f_code not in stages:
                    caller = caller.f_back
                stage = "other" if caller is None else stages[caller.f_code]
                sizes[stage].append(np.size(frame.f_locals["s"]))

        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=64)
        sys.setprofile(count)
        try:
            spec = solve_eigenfrequencies(p)
            survival_trace(spec, np.linspace(0.0, 5.0, 9), atom_weights(spec))
        finally:
            sys.setprofile(None)
        assert sizes["derive"] == [1, 1, 63]
        assert sizes["other"] == []
        assert all(size <= 2 for size in sizes["solve"])
