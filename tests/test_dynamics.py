import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dressedcavity import (
    AmplitudeTrace,
    DomainError,
    DressedAtomParams,
    FreeSpaceParams,
    InvariantViolation,
    RegimeViolation,
    SuperpositionSpec,
    amplitude_discrete,
    amplitude_free_space,
    amplitude_row,
    amplitude_trace,
    atom_weights,
    free_space_trace,
    imag_survival_integral,
    reduced_pair_matrix,
    small_cavity_amplitude,
    survival_sq_large_time,
    survival_sq_lower_bound,
    survival_sq_small_cavity,
    survival_trace,
)
from dressedcavity import dynamics, solve_eigenfrequencies
from dressedcavity.dynamics import series_tail_bound, small_cavity_trace
from oracles import brute_force_grid, brute_force_imag_integral, free_space_survival_brute

OMEGA_BAR, G = 1.0, 0.5

# brute-force trapezoid oracle, [0, 400] grid with 1e7 points plus endpoint
# remainder (see oracles.py); frozen 2024 run
G_INTEGRAL_FROZEN = {
    0.5: -0.5296308121122633,
    1.0: -0.5788379294343701,
    2.0: -0.2858828018303656,
    5.0: 0.10069876806841294,
}

# -exp(-g pi / kappa): closed-form real part at t = pi/kappa
REAL_PART_AT_PI_OVER_KAPPA = -0.16303353482158048

# direct evaluation of the worst-case survival formula
BOUND_01 = 0.36729331802172704
BOUND_005 = 0.6387992442088389

# survival amplitude sum_r w_r exp(-i Omega_r t) at omega_bar=1, g=0.5 on the
# grid linspace(0, 25, 501), at grid indices 37, 250 and 499 (40-digit mpmath:
# each float64 root refined by three Newton steps on the secular equation
# with the float64 parameters, its weight 1/(1 + eta^2 (S + lam S2)), the
# float64 grid times); keyed by (delta, N)
SURVIVAL_FROZEN = {
    (0.1, 200): {
        37: (-0.161666906736281848933586, -0.7805809656894608119592846),
        250: (0.2117068794534268252906345, 0.7673453902272270484043608),
        499: (-0.5544279027399617955223469, 0.4747505639416122185636876),
    },
    (1e-3, 4096): {
        37: (-0.2739380368881022650789313, -0.9608705036609159914649273),
        250: (0.993979472154561027444877, 0.07839110769124999018773126),
        499: (0.9757507992823425108469287, 0.2083042906935459157749682),
    },
    (1e3, 4096): {
        37: (-0.5853129725117271527671727, -0.2745416322403509254190377),
        250: (0.1335139681399597993079749, -0.07050119774727168267471021),
        499: (0.02569787666827124996227338, -0.1387162633517133146123647),
    },
}


class TestDiscreteSum:
    def test_identity_at_t0(self, fig_matrix):
        assert amplitude_discrete(fig_matrix, "atom", "atom", 0.0) == pytest.approx(1.0, abs=1e-6)
        assert amplitude_discrete(fig_matrix, "atom", 5, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_symmetry_in_labels(self, fig_matrix):
        for t in (0.7, 3.3):
            assert amplitude_discrete(fig_matrix, "atom", 2, t) == \
                amplitude_discrete(fig_matrix, 2, "atom", t)

    def test_unitarity_random_times(self, fig_matrix, rng):
        times = rng.uniform(0.0, 50.0, 25)
        for mu in ("atom", 1, 7):
            rows = amplitude_row(fig_matrix, mu, times)
            totals = np.sum(np.abs(rows) ** 2, axis=1)
            assert np.max(np.abs(totals - 1.0)) < 1e-6

    def test_atom_and_zero_name_one_row(self, fig_matrix):
        # the t = 0 check compares rows, not labels: f_atom,0(0) = 1
        times = np.array([0.0, 1.3])
        tr = amplitude_trace(fig_matrix, "atom", 0, times)
        assert tr.values[0] == pytest.approx(1.0, abs=1e-6)
        assert np.array_equal(tr.values, amplitude_trace(fig_matrix, 0, "atom", times).values)

    def test_trace_matches_scalar_calls(self, fig_matrix):
        times = np.array([0.0, 0.9, 4.2])
        tr = amplitude_trace(fig_matrix, "atom", 3, times)
        assert tr.method == "discrete-sum"
        for t, v in zip(times, tr.values):
            assert v == pytest.approx(amplitude_discrete(fig_matrix, "atom", 3, t))

    def test_survival_trace_without_dense_matrix(self, fig_spectrum, fig_matrix):
        times = np.linspace(0.0, 12.0, 25)
        light = survival_trace(fig_spectrum, times)
        heavy = amplitude_trace(fig_matrix, "atom", "atom", times)
        assert light.values == pytest.approx(heavy.values, abs=1e-10)

    def test_survival_trace_memory_bounded_at_large_n(self):
        # 201 times x 100001 modes would be a 322 MB complex phase array in
        # one piece; the sum over blocks of modes must peak far below that.
        # The 201 times split into 15 coarse x 14 fine, so a block takes
        # 2^22 // 210 = 19972 modes and holds 29 phases per mode.
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=100_000)
        spec = solve_eigenfrequencies(p)
        w = atom_weights(spec)
        times = np.linspace(0.0, 20.0, 201)
        tracemalloc.start()
        try:
            tr = survival_trace(spec, times, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 2**20
        # f(0) = sum of the weights, summed here across six mode blocks
        assert abs(tr.values[0] - np.sum(w)) <= 1e-12

    def test_mode_blocks_do_not_change_sums(self, fig_spectrum, fig_matrix, monkeypatch):
        times = np.linspace(0.0, 12.0, 7)
        whole = [amplitude_row(fig_matrix, 3, times), survival_trace(fig_spectrum, times).values]
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 50)  # 4 x 2 split: 6 modes a block
        blocked = [amplitude_row(fig_matrix, 3, times), survival_trace(fig_spectrum, times).values]
        for a, b in zip(whole, blocked):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 201 * np.finfo(float).eps

    @pytest.mark.parametrize("delta, n_modes", [
        (0.1, 200),
        (1e3, 4096),
        (1e-3, 4096),
    ])
    def test_survival_matches_high_precision_reference(self, delta, n_modes):
        p = DressedAtomParams.from_delta(OMEGA_BAR, G, delta, n_modes=n_modes)
        values = survival_trace(solve_eigenfrequencies(p), np.linspace(0.0, 25.0, 501)).values
        for j, (re, im) in SURVIVAL_FROZEN[delta, n_modes].items():
            assert abs(values[j] - complex(re, im)) <= 1e-14

    def test_rejects_bad_labels_and_times(self, fig_matrix):
        with pytest.raises(ValueError):
            amplitude_discrete(fig_matrix, "atom", 999, 1.0)
        with pytest.raises(ValueError):
            amplitude_discrete(fig_matrix, "atom", "atom", -1.0)

    def test_trace_invariants_enforced(self):
        with pytest.raises(InvariantViolation):
            AmplitudeTrace(times=np.array([0.0, 1.0]),
                           values=np.array([1.0 + 0j, 1.5 + 0j]),
                           mu="atom", nu="atom", method="discrete-sum")
        with pytest.raises(InvariantViolation):
            AmplitudeTrace(times=np.array([0.0]), values=np.array([0.5 + 0j]),
                           mu="atom", nu="atom", method="discrete-sum")

    @pytest.mark.parametrize("j", [0, 2])
    def test_trace_rejects_nan(self, j):
        values = np.array([1.0, 0.5, 0.5, 0.5], dtype=complex)
        values[j] = np.nan
        with pytest.raises(InvariantViolation, match=f"nan > 1 .* at t={0.5 * j}$"):
            AmplitudeTrace(times=np.linspace(0.0, 1.5, 4), values=values,
                           mu="atom", nu="atom", method="discrete-sum")

    def test_trace_and_pair_matrix_reject_the_same_magnitude(self):
        # |z| by hypot is 1 ulp over the 1 + 1e-9 bound, where numpy's array
        # abs reads exactly the bound; both checks must reject z
        z = -0.5274882213257759 - 0.849562345188727j
        times = np.linspace(0.0, 10.0, 501)
        values = np.full(times.size, z)
        values[0] = 1.0
        with pytest.raises(InvariantViolation, match="unphysical"):
            AmplitudeTrace(times=times, values=values, mu="atom", nu="atom",
                           method="discrete-sum")
        with pytest.raises(DomainError, match=r"\|f\| <= 1"):
            reduced_pair_matrix(values, values, SuperpositionSpec(0.5), times)


def _phase_sum_by_mode(times, omegas, weights):
    # one mode at a time, each phase from its exact time
    out = np.zeros((times.size,) + weights.shape[1:], dtype=complex)
    for om, w in zip(omegas, weights):
        out += np.multiply.outer(np.exp(-1j * om * times), w)
    return out


class TestPhaseSum:
    """The coarse x fine running-product tables against a mode-by-mode sum."""

    @staticmethod
    def _assert_matches_mode_loop(times, omegas, weights):
        # each phase may move by a few ulps of Omega max|t| (the rounding of
        # Omega t itself), so the bound is set by sum_r |w_r| (1 + Omega_r max|t|)
        got = dynamics._phase_sum(times, omegas, weights)
        ref = _phase_sum_by_mode(times, omegas, weights)
        scale = (1.0 + omegas * np.max(np.abs(times))) @ np.abs(weights)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 16 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 17, 201, 501])
    def test_uniform_grids(self, fig_spectrum, fig_matrix, steps):
        times = np.linspace(0.0, 25.0, steps)
        assert dynamics._grid_step(times)[1] == math.isqrt(steps)
        for weights in (atom_weights(fig_spectrum), fig_matrix.t[3][:, None] * fig_matrix.t.T):
            self._assert_matches_mode_loop(times, fig_spectrum.bigomegas, weights)

    def test_grid_starting_after_zero(self, fig_spectrum):
        times = np.linspace(3.7, 41.2, 101)
        h, b = dynamics._grid_step(times)
        assert b == 10 and h == pytest.approx(0.375, rel=1e-15)
        self._assert_matches_mode_loop(times, fig_spectrum.bigomegas, atom_weights(fig_spectrum))

    def test_non_uniform_grid_is_the_plain_sum(self, fig_spectrum):
        times = np.linspace(0.0, 5.0, 101) ** 2
        assert dynamics._grid_step(times) == (0.0, 1)
        w = atom_weights(fig_spectrum)
        plain = np.exp(-1j * np.outer(times, fig_spectrum.bigomegas)) @ w
        assert np.array_equal(dynamics._phase_sum(times, fig_spectrum.bigomegas, w), plain)

    @pytest.mark.parametrize("scale, start", [(1.0, 0.0), (0.37, 2.5)])
    def test_split_without_a_step_is_the_plain_sum(self, fig_spectrum, scale, start):
        # coarse [0, 10, 20] + fine [0, 1, 3] rebuilds every time, but no one
        # step h does: powers of exp(-i Omega h) would give the wrong phases
        times = start + scale * np.array([0.0, 1.0, 3.0, 10.0, 11.0, 13.0, 20.0, 21.0, 23.0])
        w = atom_weights(fig_spectrum)
        self._assert_matches_mode_loop(times, fig_spectrum.bigomegas, w)
        assert dynamics._grid_step(times) == (0.0, 1)
        plain = np.exp(-1j * np.outer(times, fig_spectrum.bigomegas)) @ w
        assert np.array_equal(dynamics._phase_sum(times, fig_spectrum.bigomegas, w), plain)

    def test_long_grid_running_products(self, fig_spectrum, fig_matrix):
        # 10001 times: 100 coarse x 100 fine rows, so each table is about 100
        # running products deep
        times = np.linspace(0.0, 25.0, 10_001)
        assert dynamics._grid_step(times)[1] == 100
        rows = fig_matrix.t[3][:, None] * fig_matrix.t.T[:, ::25]  # 9 of the 201 columns
        for weights in (atom_weights(fig_spectrum), rows):
            self._assert_matches_mode_loop(times, fig_spectrum.bigomegas, weights)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 100.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e),
           st.integers(4, 2000))
    @example(0.0, 7.063216182851738e-07, 1489)
    @example(0.0, 1e-08, 4)
    @example(0.0, 1.3e-08, 11)
    def test_uniform_grid_property(self, fig_spectrum, start, h, steps):
        # Omega max|t| from ~3e-8, where the bound is about 16 eps sum|w|, to
        # ~2e6; at the first example a product by the rounded exp(-i Omega h),
        # whose modulus drifts by up to eps/4 a row, misses the bound by 20%.
        # At the other two every phase is close to 1: a matrix product over
        # the terms C F w, all close to w_m, reads 16.5 and 25.5 eps sum|w|
        # there, so the kernel multiplies C - 1 instead
        times = start + np.arange(steps) * h
        assert dynamics._grid_step(times)[1] == math.isqrt(steps)
        self._assert_matches_mode_loop(times, fig_spectrum.bigomegas, atom_weights(fig_spectrum))

    @pytest.mark.parametrize("budget", [dynamics._BLOCK_ELEMENTS, 50])
    @pytest.mark.parametrize("steps", [4, 17, 201])
    def test_vector_route_matches_table_route(self, fig_spectrum, monkeypatch, steps, budget):
        # 1-D weights contract coarse and fine exponentials as a matrix
        # product; the same weights as one column take the table of phases.
        # A budget of 50 puts 12, 2 and 1 modes in a block.
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        times = np.linspace(0.0, 25.0, steps)
        om, w = fig_spectrum.bigomegas, atom_weights(fig_spectrum)
        got = dynamics._phase_sum(times, om, w)
        ref = dynamics._phase_sum(times, om, w[:, None])[:, 0]
        scale = (1.0 + om * np.max(np.abs(times))) @ np.abs(w)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 16 * np.finfo(float).eps * scale)

    def test_small_block_budget(self, fig_spectrum, monkeypatch):
        # 17 times split into 5 coarse x 4 fine = 20 rows: 2 modes a block, 101 blocks
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 50)
        times = np.linspace(0.0, 25.0, 17)
        self._assert_matches_mode_loop(times, fig_spectrum.bigomegas, atom_weights(fig_spectrum))


class TestImagSurvivalIntegral:
    def test_zero_at_t0(self):
        assert imag_survival_integral(0.0, OMEGA_BAR, G) == 0.0

    @pytest.mark.parametrize("t", sorted(G_INTEGRAL_FROZEN))
    def test_against_frozen_brute_force(self, t):
        got = imag_survival_integral(t, OMEGA_BAR, G)
        assert got == pytest.approx(G_INTEGRAL_FROZEN[t], abs=1e-6)

    def test_against_live_brute_force_small_grid(self):
        # small independent grid, looser tolerance, different truncation
        got = imag_survival_integral(3.0, OMEGA_BAR, G)
        ref = brute_force_imag_integral(3.0, OMEGA_BAR, G, x_max=200.0,
                                        n_points=2_000_001)
        assert got == pytest.approx(ref, abs=1e-5)

    def test_late_time_envelope(self):
        # |G| <= 8 g / (omega_bar^4 t^3); the measured tail sits a factor
        # pi below the envelope
        for t in (10.0, 15.0, 20.0, 30.0, 50.0):
            g_val = imag_survival_integral(t, OMEGA_BAR, G)
            assert abs(g_val) <= 8.0 * G / (OMEGA_BAR**4 * t**3)
        t = 50.0
        assert abs(imag_survival_integral(t, OMEGA_BAR, G)) == pytest.approx(
            8.0 * G / (np.pi * OMEGA_BAR**4 * t**3), rel=0.05)

    @pytest.mark.parametrize("g, t", [(0.9, 800.0), (0.5, 1500.0)])
    def test_large_gt_follows_power_law_tail(self, g, t):
        # exp(+-g t) and E1 overflow and underflow past g t ~ 700; the tail
        # is the 2/z^3 order of the E1 asymptotic series
        got = imag_survival_integral(t, OMEGA_BAR, g)
        tail = 8.0 * g / (np.pi * OMEGA_BAR**4 * t**3)
        assert np.isfinite(got)
        assert got == pytest.approx(tail, rel=1e-3)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            imag_survival_integral(-1.0, OMEGA_BAR, G)


class TestFreeSpace:
    def test_weak_coupling_gate(self):
        with pytest.raises(RegimeViolation):
            FreeSpaceParams(omega_bar=1.0, g=1.5)
        with pytest.raises(RegimeViolation):
            FreeSpaceParams(omega_bar=1.0, g=1.0)

    def test_unity_at_t0(self):
        p = FreeSpaceParams(OMEGA_BAR, G)
        assert amplitude_free_space(p, 0.0) == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_real_part_at_half_oscillation(self):
        p = FreeSpaceParams(OMEGA_BAR, G)
        t = np.pi / p.kappa
        got = amplitude_free_space(p, t)
        assert got.real == pytest.approx(REAL_PART_AT_PI_OVER_KAPPA, abs=1e-12)

    def test_decoupling_limit(self):
        p = FreeSpaceParams(omega_bar=1.0, g=1e-6)
        got = amplitude_free_space(p, 2.0)
        assert got.real == pytest.approx(np.cos(2.0), abs=1e-4)

    def test_against_brute_force_integral(self):
        p = FreeSpaceParams(OMEGA_BAR, G)
        for t in (0.5, 2.0, 5.0):
            ref = free_space_survival_brute(t, OMEGA_BAR, G)
            assert amplitude_free_space(p, t) == pytest.approx(ref, abs=2e-6)

    @pytest.mark.parametrize("g", [0.02, 0.9])
    def test_against_brute_force_at_coupling_edges(self, g):
        p = FreeSpaceParams(OMEGA_BAR, g)
        for t in (0.5, 5.0):
            ref = free_space_survival_brute(t, OMEGA_BAR, g)
            assert amplitude_free_space(p, t) == pytest.approx(ref, abs=2e-6)

    def test_continuous_at_t0(self):
        p = FreeSpaceParams(OMEGA_BAR, G)
        assert amplitude_free_space(p, 0.0) == 1.0 + 0j
        assert abs(amplitude_free_space(p, 1e-12) - 1.0) <= 1e-9

    def test_trace_method_tag(self):
        p = FreeSpaceParams(OMEGA_BAR, G)
        tr = free_space_trace(p, np.linspace(0, 4, 9))
        assert tr.method == "free-space-closed-form"

    def test_envelope_monotone_decay(self):
        # running maximum over one bare period never increases
        p = FreeSpaceParams(OMEGA_BAR, G)
        times = np.linspace(0.0, 30.0, 601)
        mags = np.abs(free_space_trace(p, times).values) ** 2
        window = 2 * np.pi / OMEGA_BAR
        n_win = int(times[-1] / window)
        maxima = [mags[(times >= i * window) & (times < (i + 1) * window)].max()
                  for i in range(n_win)]
        assert np.all(np.diff(maxima) <= 1e-12)

    def test_large_cavity_discrete_sum_approaches_closed_form(self):
        # delta=50 with coverage up to 40 omega_bar: the truncated-system
        # survival amplitude tracks the continuum result to 1e-3 well before
        # the recurrence time 2R/c ~ 630 (slowest test in the suite)
        p = DressedAtomParams.from_delta(OMEGA_BAR, G, 50.0, n_modes=80_000)
        spec_roots = solve_eigenfrequencies(p)
        times = np.linspace(0.0, 5.0 / G, 101)
        disc = np.abs(survival_trace(spec_roots, times).values)
        fp = FreeSpaceParams(OMEGA_BAR, G)
        closed = np.abs(free_space_trace(fp, times).values)
        assert np.max(np.abs(disc - closed)) < 1e-3


class TestLargeTimeFormula:
    def test_power_law_floor_value(self):
        # 64 g^2 / t^6 dominates once the exponential is dead
        got = survival_sq_large_time(50.0, OMEGA_BAR, G)
        assert got == pytest.approx(64 * G**2 / 50.0**6, rel=1e-3)
        assert got == pytest.approx(1.024e-9, rel=1e-3)

    def test_vanishes_at_infinity(self):
        vals = [survival_sq_large_time(t, OMEGA_BAR, G) for t in (50, 100, 400)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < 1e-13

    def test_same_order_as_closed_form_at_moderate_time(self):
        # the formula swaps kappa for omega_bar in the trig factor, so only
        # order-of-magnitude agreement holds here (measured ratio ~0.54)
        p = FreeSpaceParams(OMEGA_BAR, G)
        t = 8.0
        exact = abs(amplitude_free_space(p, t)) ** 2
        approx = survival_sq_large_time(t, OMEGA_BAR, G)
        assert approx == pytest.approx(exact, rel=0.9)
        assert approx != pytest.approx(exact, rel=0.2)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            survival_sq_large_time(0.0, OMEGA_BAR, G)


class TestSmallCavitySeries:
    def test_unity_at_t0_up_to_truncation(self, fig_params):
        got = survival_sq_small_cavity(0.0, fig_params, k_max=10_000)
        assert got == pytest.approx(1.0, abs=series_tail_bound(fig_params, 10_000))
        assert got < 1.0

    def test_never_below_worst_case_bound(self, fig_params):
        times = np.linspace(0.0, 50.0, 800)
        vals = np.abs(small_cavity_amplitude(fig_params, times, 5_000)) ** 2
        assert vals.min() >= survival_sq_lower_bound(fig_params.delta) - 1e-9

    def test_tracks_discrete_sum(self, fig_params, fig_matrix):
        # first-order frequencies drift O(delta^2 t), so the tolerance
        # widens with the window: ~4% on [0,5], ~15% by t=20
        short = np.linspace(0.0, 5.0, 200)
        long = np.linspace(0.0, 20.0, 400)
        for times, tol in ((short, 0.05), (long, 0.16)):
            series = np.abs(small_cavity_amplitude(fig_params, times, 5_000)) ** 2
            disc = np.abs(amplitude_trace(fig_matrix, "atom", "atom", times).values) ** 2
            assert np.max(np.abs(series - disc)) < tol

    def test_converges_to_the_exact_route_at_second_order(self):
        # the first-order series misses the exact survival by O(delta^2):
        # max_t ||f_exact|^2 - |f_series|^2| over t in [0, 25] read 3.6e-2,
        # 9.5e-3, 2.5e-3 and 6.3e-4 at these deltas, a fitted order of 1.94
        deltas, n = np.array([0.04, 0.02, 0.01, 0.005]), 4000
        times = np.linspace(0.0, 25.0, 501)
        errors = []
        for delta in deltas:
            p = DressedAtomParams.from_delta(OMEGA_BAR, G, delta, n_modes=n)
            exact = np.abs(survival_trace(solve_eigenfrequencies(p), times).values) ** 2
            series = np.abs(small_cavity_amplitude(p, times, n)) ** 2
            errors.append(np.max(np.abs(exact - series)))
        order = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        assert order == pytest.approx(2.0, abs=0.3)

    def test_matches_term_by_term_sum(self, fig_params):
        # the series summed one mode at a time; 2001 times split the kernel's
        # sum over the 5001 modes into three blocks
        p, k_max = fig_params, 5000
        times = np.linspace(0.0, 25.0, 2001)
        d = p.delta
        atom = 1.0 / (1.0 + 2.0 * np.pi * d / 3.0)
        ref = atom * np.exp(-1j * p.omega_bar * (1.0 - np.pi * d / 3.0) * times)
        for k in range(1, k_max + 1):
            omega_k = (p.g / d) * (k + 2.0 * d / (np.pi * k))
            ref += (4.0 * d / (np.pi * k * k)) * atom * np.exp(-1j * omega_k * times)
        got = small_cavity_amplitude(p, times, k_max)
        assert np.max(np.abs(got - ref)) <= 2 * k_max * np.finfo(float).eps

    def test_method_tag(self, fig_params):
        tr = small_cavity_trace(fig_params, np.linspace(0, 3, 7), 500)
        assert tr.method == "small-cavity-series"

    def test_gates(self, fig_params):
        big = DressedAtomParams.from_delta(1.0, 0.5, 0.5, n_modes=4)
        with pytest.raises(RegimeViolation):
            survival_sq_small_cavity(1.0, big)
        with pytest.raises(ValueError):
            survival_sq_small_cavity(1.0, fig_params, k_max=0)
        with pytest.raises(ValueError):
            survival_sq_small_cavity(-1.0, fig_params)


class TestLowerBound:
    def test_frozen_values(self):
        assert survival_sq_lower_bound(0.1) == pytest.approx(BOUND_01, rel=1e-12)
        assert survival_sq_lower_bound(0.05) == pytest.approx(BOUND_005, rel=1e-12)

    def test_decoupled_atom_never_decays(self):
        assert survival_sq_lower_bound(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_regime_gate(self):
        with pytest.raises(RegimeViolation):
            survival_sq_lower_bound(0.3)


class TestExpE1:
    # exp(z) E1(z) at the four poles' arguments z = -i p t of free_space_trace,
    # t up to 2000; against 30-digit mpmath it must be at least as close as
    # scipy's exp(z) * exp1(z), taken where that product is finite (it
    # overflows once g t passes ~700, which the continued fraction reaches)
    @pytest.mark.parametrize("g", [0.02, 0.1, 0.5, 0.9, 0.99])
    def test_at_least_as_close_to_mpmath_as_scipy(self, g):
        mpmath = pytest.importorskip("mpmath")
        exp1 = pytest.importorskip("scipy.special").exp1
        poles, _ = dynamics._poles(OMEGA_BAR, g)
        times = np.concatenate((np.geomspace(1e-3, 2000.0, 120), np.linspace(0.05, 25.0, 24)))
        z = (-1j * (times[:, None] * poles)).ravel()
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.exp(mpmath.mpc(v)) * mpmath.e1(mpmath.mpc(v)))
                            for v in z])
        with np.errstate(over="ignore", invalid="ignore"):
            theirs = np.abs(np.exp(z) * exp1(z) - ref) / np.abs(ref)
        ours = np.abs(dynamics._exp_e1(z) - ref) / np.abs(ref)
        assert np.isfinite(theirs).all() == (g * times.max() < 700.0)
        assert np.all(np.isfinite(ours))
        assert ours.max() <= np.max(theirs[np.isfinite(theirs)])
        assert ours.max() <= 32 * np.finfo(float).eps


class TestContinuumNorm:
    @pytest.mark.parametrize("omega_bar, g", [(1.0, 0.5), (1.0, 0.02), (1.0, 0.9), (0.3, 0.9)])
    def test_residue_sum_is_one(self, omega_bar, g):
        # (4g/pi) integral of the weight = Re[4 i g (A_3 + A_4)], also for omega_bar < g
        assert abs(dynamics.spectral_weight_norm(omega_bar, g) - 1.0) <= 1e-14

    @pytest.mark.parametrize("omega_bar, g", [(1.0, 0.5), (1.0, 0.02), (0.3, 0.9)])
    def test_trapezoid_of_the_weight_is_one(self, omega_bar, g):
        # the oracle's grid on [0, X] plus the tail integral of 1/x^2 + (2 omega_bar^2
        # - 4 g^2)/x^4, the weight's expansion beyond X
        x, wx = brute_force_grid(omega_bar, g, n_points=1_000_001)
        tail = 1.0 / x[-1] + (2.0 * omega_bar**2 - 4.0 * g * g) / (3.0 * x[-1] ** 3)
        norm = 4.0 * g / np.pi * (np.trapezoid(wx, x) + tail)
        assert abs(norm - 1.0) <= 1e-6
