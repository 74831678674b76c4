import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from dressedcavity import (
    ConvergenceFailure,
    DressedAtomParams,
    InvariantViolation,
    ModeSpectrum,
    NormalizationFailure,
    amplitude_row,
    build_form,
    build_matrix,
    cotangent_residual,
    diagonalize,
    field_frequencies,
    oracle_amplitude,
    secular_residual,
    solve_eigenfrequencies,
    survival_trace,
)
from dressedcavity import spectrum
from hypothesis import example, given, settings
from oracles import dlasd4_inner_roots, mpmath_mode_sums, mpmath_secular_offset
from test_dynamics import OM0_APPROX, OM1_APPROX, OM2_APPROX
from test_properties import _north_star_spectra

# outer roots at omega_bar=1, g=0.01, delta=100, N=2048 (40-digit mpmath roots
# of the secular equation with the float64 parameters); the top root lies far
# above omega_N = 0.2048
OUTER_ROOTS_FROZEN = (9.999993633802215751631611e-05, 1.001321588626786555067333)

# outer-root offsets s_0, s_N from the asymptotes m_0, m_N in units of dw
# (40-digit mpmath roots of the secular equation with the float64 dw, eta^2
# and omega_bar), keyed by (omega_bar, g, delta, N): ((m_0, s_0), (m_N, s_N))
OUTER_OFFSETS_FROZEN = {
    # the figure
    (1.0, 0.5, 0.1, 200): ((0, 0.1815563589646804334129061),
                           (200, 0.000318976202085701218125878)),
    # root 0 near zero frequency (m = 0)
    (1.0, 0.5, 1e-3, 4096): ((0, 0.00199790919338857987481683),
                             (4096, 1.554249807222537256757384e-7)),
    # root 0 just under omega_1 (m = 1); the top root of OUTER_ROOTS_FROZEN
    (1.0, 0.01, 100.0, 2048): ((1, -6.366197783372333474672293e-7),
                               (2048, 7965.21588626786642762419)),
    # the top root hugging omega_N
    (1.0, 0.5, 1e-3, 200): ((0, 0.001997915213991623570918232),
                            (200, 3.183165329474189778884192e-6)),
    # the top root far above omega_N at small N
    (1.0, 0.5, 1e3, 8): ((1, -0.0001591489909783043972436394),
                         (8, 1994.544876183516449282756)),
}

# spectra (omega_bar, g, delta, N) whose top root stalled under a half-move
# limit on the outer pair's splits: a split that moved a few ulps in rounding
# noise was refused, and the root crept back by halvings for 36, 40 and 41
# direct sums
OUTER_STALLS = (
    (1.0, 0.8535570531285954, 31.98258390888533, 84),
    (8.40439930693937, 31.23894632574411, 216.4947178148499, 637),
    (0.4459313504051177, 2.1194469834055902, 645.4607310178715, 2254),
)

# (omega_bar, g, delta, N) with root 0 4.5e-24 spacings below omega_1: a
# one-pole split formed as a correction to x rounded to the pole itself, and
# root 0 halved for 22 steps (26 outer splits in all)
ROOT_0_AT_THE_POLE = (2.27609058336141, 3.4387711511672757e-11, 32.227026489130715, 59)

# inner roots at omega_bar=5.566964054792819, g=0.10780328649942257,
# delta=3.4813356203742436, N=589 (40-digit mpmath roots of the secular
# equation with the float64 dw, eta^2 and omega_bar^2 and omega_k = k dw),
# keyed by root index; LAPACK dlasd4 puts root 180 5.2 ulps off
INNER_ROOTS_FROZEN = {
    1: 0.06192789481475333676507794,
    2: 0.0928918412442378560333899,
    3: 0.123855786499579827213501,
    10: 0.3406033372887912552654331,
    50: 1.579151937521780724932665,
    100: 3.127261027463212212513579,
    180: 5.589304853881028595093362,
    300: 9.290182763959314524550695,
    450: 13.93491562378594042589735,
    516: 15.97864610632854269120239,
    587: 18.17721616168693894347587,
    588: 18.20818223762620883567789,
}


class TestParams:
    def test_derived_quantities(self):
        p = DressedAtomParams(omega_bar=1.0, g=0.5, delta=0.3, n_modes=5)
        assert p.delta == 0.3
        assert p.radius == np.pi * 0.3 / 0.5
        assert p.delta_omega * p.radius == pytest.approx(np.pi, rel=1e-15)
        assert p.eta**2 == pytest.approx(4 * p.g * p.delta_omega / np.pi, rel=1e-15)
        assert p.delta == pytest.approx(p.g * p.radius / np.pi, rel=1e-15)

    @staticmethod
    def _sweep_domain(k):
        # delta log-uniform in [1e-3, 1e3], g uniform in [0.02, 0.9]
        rng = np.random.default_rng(20261019)
        return 10.0 ** rng.uniform(-3.0, 3.0, k), rng.uniform(0.02, 0.9, k)

    def test_delta_is_kept_as_given(self):
        # R = pi delta / g, and g R / pi does not return every delta: at g = 0.5 it
        # gives 0.18999999999999997 for 0.19 and 0.2 for 0.19999999999999998
        deltas, gs = self._sweep_domain(2000)
        for delta, g in [*zip(deltas, gs), (0.011, 0.5), (0.19, 0.5),
                         (0.19999999999999998, 0.5)]:
            assert DressedAtomParams(1.0, g, delta, 8).delta == delta

    def test_derived_constants_follow_the_radius_of_delta(self):
        # R, dw and eta by the expressions the radius-form constructor used
        for delta, g in zip(*self._sweep_domain(200)):
            p = DressedAtomParams(1.0, g, delta, 8)
            radius = np.pi * delta / g
            dw = np.pi / radius
            assert (p.radius, p.delta_omega, p.eta) == (radius, dw, np.sqrt(4.0 * g * dw / np.pi))

    def test_delta_round_trip(self):
        assert DressedAtomParams.from_delta is DressedAtomParams  # bench/workloads.py calls it
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=3)
        assert p.delta == pytest.approx(0.1, rel=1e-15)
        assert p.delta_omega == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [
        dict(omega_bar=-1.0, g=0.5, delta=0.1),
        dict(omega_bar=1.0, g=0.0, delta=0.1),
        dict(omega_bar=1.0, g=0.5, delta=-0.3),
        dict(omega_bar=1.0, g=0.5, delta=0.1, n_modes=0),
        # finite, but omega_bar^2, g^2, N eta^2, (N dw)^2 or dw^4 overflows (R = pi delta / g)
        dict(omega_bar=1e200, g=1.0, delta=0.3),
        dict(omega_bar=1.0, g=1e200, delta=3e199),
        dict(omega_bar=1.0, g=1e300, delta=3e289, n_modes=10),
        dict(omega_bar=1.0, g=1.0, delta=3e-301, n_modes=10**6),
        dict(omega_bar=1.0, g=1.0, delta=3e-81, n_modes=1),
        # finite, but R = pi delta / g overflows
        dict(omega_bar=1.0, g=1e-300, delta=1e10, n_modes=8),
    ])
    def test_rejects_bad_inputs(self, bad):
        with pytest.raises(ValueError):
            DressedAtomParams(**bad)


class TestFieldFrequencies:
    def test_unit_spacing(self):
        p = DressedAtomParams(omega_bar=1.0, g=0.1, delta=0.1, n_modes=3)  # R = pi
        assert field_frequencies(p) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)

    def test_pi_spacing(self):
        p = DressedAtomParams(omega_bar=1.0, g=0.1, delta=0.1 / np.pi, n_modes=2)  # R = 1
        assert field_frequencies(p) == pytest.approx([np.pi, 2 * np.pi], rel=1e-15)

    def test_delta_parameterization(self):
        # delta=0.1, g=0.5 puts the first mode at g/delta = 5
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=1)
        assert field_frequencies(p) == pytest.approx([5.0], rel=1e-14)


# the (delta, N) points of the inner roots' step counts, at omega_bar = 1, g = 0.5
INNER_STEP_POINTS = [(0.1, 200), (1.0, 200), (1.0, 100_000)]


class TestSolve:
    def test_lowest_root_near_first_order_value(self, fig_spectrum):
        assert fig_spectrum.bigomegas[0] == pytest.approx(OM0_APPROX, rel=0.02)

    def test_field_roots_near_first_order_values(self, fig_spectrum):
        assert fig_spectrum.bigomegas[1] == pytest.approx(OM1_APPROX, rel=0.01)
        assert fig_spectrum.bigomegas[2] == pytest.approx(OM2_APPROX, rel=0.01)

    def test_interlacing(self, fig_spectrum):
        om, bo = field_frequencies(fig_spectrum.params), fig_spectrum.bigomegas
        assert bo[0] < om[0]
        assert np.all(bo[1:] > om)
        assert np.all(bo[1:-1] < om[1:])

    @pytest.mark.parametrize("delta, g, n_modes", [
        (0.1, 0.5, 1), (0.1, 0.5, 2), (0.1, 0.5, 7), (0.1, 0.5, 40),
        # the domain's corners, where roots hug their asymptotes (delta = 1e-3)
        # or the top root lies far above omega_N (delta = 1e3)
        (1e-3, 0.9, 4096), (1e3, 0.02, 4096),
    ], ids=["1", "2", "7", "40", "1e-3-0.9-4096", "1e3-0.02-4096"])
    def test_residuals_small_at_all_roots(self, delta, g, n_modes):
        p = DressedAtomParams(1.0, g, delta, n_modes=n_modes)
        spec = solve_eigenfrequencies(p)
        lam = spec.bigomegas**2
        resid = np.abs(secular_residual(spec.bigomegas, p))
        wk2 = field_frequencies(p) ** 2
        slope = 1.0 + p.eta_sq * lam * np.array([np.sum(1.0 / (wk2 - x) ** 2) for x in lam])
        assert np.all(resid / (slope * lam) < 1e-10)

    def test_newton_slope_is_the_secular_derivative(self, fig_params, fig_spectrum):
        # the slope |F'| = 1 + eta^2 (S + lam S2) of newton_rel and the atom
        # weights; a little above root 5, where F is far from rounding,
        # compare it with a central difference of F in lam
        lam = (fig_spectrum.bigomegas[5] * (1.0 + 1e-3)) ** 2
        h = 1e-7 * lam
        central = (secular_residual(np.sqrt(lam + h), fig_params)
                   - secular_residual(np.sqrt(lam - h), fig_params)) / (2.0 * h)
        u = np.sqrt(lam) / fig_params.delta_omega
        m = np.rint(u)
        slope = spectrum._secular(m, u - m, fig_params, spectrum._closed_sum, slope=True)[1]
        assert slope == pytest.approx(-central, rel=1e-6)

    def test_newton_rel_is_the_relative_newton_correction(self, fig_spectrum):
        # |F| w_r / Omega_r^2 at the carried offsets, within the solver's bound
        p, m, s = fig_spectrum.params, fig_spectrum.asymptotes, fig_spectrum.offsets
        f, slope = spectrum._secular_sets(m, s, p)
        expected = np.abs(f) / slope / fig_spectrum.bigomegas**2
        np.testing.assert_allclose(fig_spectrum.newton_rel, expected, rtol=1e-15, atol=0.0)
        assert fig_spectrum.newton_rel.max() <= 1e-10
        assert not fig_spectrum.newton_rel.flags.writeable

    def test_cotangent_residual_shrinks_with_mode_count(self):
        # the truncated secular roots approach the infinite-cavity condition
        res = {}
        for n in (50, 400, 1600):
            p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=n)
            spec = solve_eigenfrequencies(p)
            res[n] = abs(cotangent_residual(spec.bigomegas[0], p))
        assert res[400] < 0.2 * res[50]
        assert res[1600] < 0.3 * res[400]
        assert res[1600] < 1e-4

    def test_closed_form_evaluator_matches_direct(self):
        # lam below omega_1, inside (omega_1, omega_N) and above omega_N: the
        # closed form inside, the outer pair's O(1) forms outside (the top root
        # carried from omega_N), each in units of dw^-2, against the definition
        p = DressedAtomParams(1.0, 0.5, 0.3, n_modes=120)
        lam = np.array([0.37, 3.1, 26.0, 311.7, 4001.0, 52000.0])
        gaps = field_frequencies(p)[None, :] ** 2 - lam[:, None]
        u = np.sqrt(lam) / p.delta_omega
        m = np.minimum(np.rint(u), p.n_modes)
        inside = (u >= 1.0) & (u <= p.n_modes)
        assert inside.any() and not inside.all()
        for kernel, at in ((spectrum._closed_sum, inside), (_outer_sums, ~inside)):
            s1, s2 = kernel(m[at], (u - m)[at], p.n_modes, 2)
            assert s1 / p.delta_omega**2 == pytest.approx(
                np.sum(1.0 / gaps[at], axis=1), rel=1e-11)
            assert s2 / p.delta_omega**4 == pytest.approx(
                np.sum(1.0 / gaps[at] ** 2, axis=1), rel=1e-11)

    def test_closed_form_solver_matches_direct_solver(self):
        for n in (150, 2048):
            p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=n)
            roots = solve_eigenfrequencies(p).bigomegas[1:-1]
            lapack = dlasd4_inner_roots(p.omega_bar, p.eta_sq, field_frequencies(p))
            assert roots == pytest.approx(lapack, rel=1e-12)

    def test_inner_roots_match_high_precision_reference(self):
        p = DressedAtomParams(5.566964054792819, 0.10780328649942257,
                              3.4813356203742436, n_modes=589)
        roots = solve_eigenfrequencies(p).bigomegas
        idx = np.array(list(INNER_ROOTS_FROZEN))
        ref = np.array(list(INNER_ROOTS_FROZEN.values()))
        assert np.all(np.abs(roots[idx] - ref) <= 2 * np.spacing(ref))

    def test_offsets_carry_the_roots(self, fig_spectrum):
        # Omega_r = (m_r + s_r) dw, m_r the nearer bare frequency (0 for root 0
        # here, N for the top root)
        m, s = fig_spectrum.asymptotes, fig_spectrum.offsets
        bo = fig_spectrum.bigomegas
        assert m[0] == 0 and m[-1] == fig_spectrum.params.n_modes
        assert np.all(np.abs(s[:-1]) <= 0.5)
        assert np.all(np.abs(bo - (m + s) * fig_spectrum.params.delta_omega) <= 2 * np.spacing(bo))

    def test_outer_roots_match_high_precision_reference(self):
        p = DressedAtomParams(1.0, 0.01, 100.0, n_modes=2048)
        roots = solve_eigenfrequencies(p).bigomegas[[0, -1]]
        ref = np.array(OUTER_ROOTS_FROZEN)
        assert np.all(np.abs(roots - ref) <= 4 * np.spacing(ref))

    @pytest.mark.parametrize("key", list(OUTER_OFFSETS_FROZEN), ids=str)
    def test_outer_offsets_match_high_precision_reference(self, key):
        p = DressedAtomParams(*key[:3], n_modes=key[3])
        spec = solve_eigenfrequencies(p)
        (m0, s0), (mn, sn) = OUTER_OFFSETS_FROZEN[key]
        assert list(spec.asymptotes[[0, -1]]) == [m0, mn]
        ref = np.array([s0, sn])
        assert np.all(np.abs(spec.offsets[[0, -1]] - ref) <= 4 * np.finfo(float).eps * np.abs(ref))

    @pytest.mark.parametrize("key", list(OUTER_OFFSETS_FROZEN) + list(OUTER_STALLS)
                             + [ROOT_0_AT_THE_POLE], ids=str)
    def test_outer_roots_take_few_direct_sums(self, key, monkeypatch):
        # each step of the outer pair is one evaluation of F and F' (once an
        # O(N) direct sum, now the O(1) outer forms); the one-pole split and
        # the secant need at most 12 of them, halving took about 60
        outer_split, steps = spectrum._outer_split, []

        def counted(params, m, x, kernel):
            steps.append(m.size)
            return outer_split(params, m, x, kernel)

        monkeypatch.setattr(spectrum, "_outer_split", counted)
        solve_eigenfrequencies(DressedAtomParams(*key[:3], n_modes=key[3]))
        assert 0 < len(steps) <= 12

    @pytest.mark.parametrize("g, delta, n, root", [
        (0.3623305972383614, 8.815969850478067, 77, 77),
        (0.6267167152482825, 638.7148822923218, 287, 261)], ids=["top", "inner"])
    def test_a_split_that_finishes_the_root_is_taken(self, g, delta, n, root, monkeypatch):
        # each root once stalled at rounding: a split that would have finished
        # it moved more than half the move before and was refused, the midpoint
        # left a one-sided bracket, and each later split, measured against the
        # midpoint's move, was refused again, for 56 steps in all.  No split is
        # refused for its size now: both roots take the secant and finish on
        # the split's residual (the top root 7 steps, root 261 4).  A step of
        # the root is a split evaluated at its asymptote on its side
        p = DressedAtomParams(1.0, g, delta, n)
        spec = solve_eigenfrequencies(p)
        m, side = spec.asymptotes[root], np.sign(spec.offsets[root])
        name = "_outer_split" if root == n else "_inner_split"
        split, steps = getattr(spectrum, name), []

        def counted(params, mm, x, kernel):
            steps.append(np.any((mm == m) & (np.sign(x) == side)))
            return split(params, mm, x, kernel)

        monkeypatch.setattr(spectrum, name, counted)
        assert np.array_equal(solve_eigenfrequencies(p).offsets, spec.offsets)
        assert 0 < sum(steps) <= 10

    @staticmethod
    def _inner_steps(delta, n, monkeypatch):
        """(calls of the inner split, its evaluations per inner root keyed by
        (asymptote, side)) in one solve at (1, 0.5, delta, n)."""
        inner_split, calls, steps = spectrum._inner_split, [], {}

        def counted(params, m, x, kernel):
            calls.append(m.size)
            for key in zip(m.tolist(), (x < 0).tolist()):
                steps[key] = steps.get(key, 0) + 1
            return inner_split(params, m, x, kernel)

        monkeypatch.setattr(spectrum, "_inner_split", counted)
        solve_eigenfrequencies(DressedAtomParams(1.0, 0.5, delta, n))
        monkeypatch.undo()
        return calls, steps

    @pytest.mark.parametrize("delta, n", INNER_STEP_POINTS, ids=str)
    def test_inner_roots_take_few_steps(self, delta, n, monkeypatch):
        # the cotangent split alone contracts by only about -0.345 a step near
        # the lowest inner roots: the figure's one block took 14 steps, 34 at
        # delta = 1, and the first block at N = 1e5 34; the secant on the
        # split's residual finishes every inner root, so every block, within 8.
        # A step of a root is a split evaluated at its asymptote on its side
        calls, steps = self._inner_steps(delta, n, monkeypatch)
        assert len(steps) == n - 1 and max(steps.values()) <= 8
        assert len(calls) <= 8 * -(-(n - 1) // spectrum._BLOCK_ELEMENTS)

    def test_inner_roots_average_few_evaluations(self, monkeypatch):
        # each inner root starts at the cotangent split of its bracket's
        # midpoint, with the midpoint as the secant's point before, so at the
        # three points above it takes at most 2.4 evaluations on average (2.07;
        # 3.06 from the half-bracket midpoint, after a pass that evaluated F
        # at every midpoint); most finish in two, the start and the secant
        evaluations = roots = 0
        for delta, n in INNER_STEP_POINTS:
            steps = self._inner_steps(delta, n, monkeypatch)[1]
            evaluations, roots = evaluations + sum(steps.values()), roots + n - 1
        assert evaluations <= 2.4 * roots

    def test_root_blocks_do_not_change_the_spectrum(self, fig_params, fig_spectrum, monkeypatch):
        # each inner block runs to the end of its own steps: blocks of 7 roots
        # give the same bits as one block of all 199
        inner_split, sizes = spectrum._inner_split, []

        def counted(params, m, x, kernel):
            sizes.append(m.size)
            return inner_split(params, m, x, kernel)

        monkeypatch.setattr(spectrum, "_BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(spectrum, "_inner_split", counted)
        spec = solve_eigenfrequencies(fig_params)
        assert max(sizes) == 7
        for name in ("asymptotes", "offsets", "weights", "newton_rel"):
            assert np.array_equal(getattr(spec, name), getattr(fig_spectrum, name)), name

    def test_failure_in_a_later_block_names_the_root(self, fig_params, fig_spectrum, monkeypatch):
        # root 150 sits in the 22nd block of 7, at local index 2; refusing its
        # splits leaves it to halving, which needs about 50 steps, and the
        # failure names its index in the spectrum
        inner_split, target = spectrum._inner_split, 150
        asymptote = fig_spectrum.asymptotes[target]
        assert np.count_nonzero(fig_spectrum.asymptotes == asymptote) == 1

        def refuse_root_150(params, m, x, kernel):
            f, g = inner_split(params, m, x, kernel)
            g[m == asymptote] = np.nan
            return f, g

        monkeypatch.setattr(spectrum, "_BLOCK_ELEMENTS", 7)
        monkeypatch.setattr(spectrum, "_BISECT_STEPS", 40)
        monkeypatch.setattr(spectrum, "_inner_split", refuse_root_150)
        with pytest.raises(ConvergenceFailure, match="root 150 ") as err:
            solve_eigenfrequencies(fig_params)
        assert err.value.interval_index == target

    def test_interlacing_at_ten_thousand_modes(self):
        # ModeSpectrum construction enforces the full bracket structure
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=10_000)
        spec = solve_eigenfrequencies(p)
        assert spec.bigomegas.size == 10_001

    def test_solve_holds_few_arrays(self):
        # the midpoint pass runs in blocks and writes into the solver's own
        # arrays, so the peak is the spectrum's derivation, about 13 arrays of
        # N+1 floats
        p = DressedAtomParams(1.0, 0.4, 0.5, 100_000)
        solve_eigenfrequencies(p)  # caches and lazy imports out of the count
        tracemalloc.start()
        try:
            solve_eigenfrequencies(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 8 * (p.n_modes + 1)

    def test_one_bisection_pass_per_solve(self, fig_params, monkeypatch):
        # all N+1 roots, inner and outer, go through one call
        bisect, sizes = spectrum._bisect, []

        def counted(params, m, a, b, start):
            sizes.append(m.size)
            return bisect(params, m, a, b, start)

        monkeypatch.setattr(spectrum, "_bisect", counted)
        solve_eigenfrequencies(fig_params)
        assert sizes == [fig_params.n_modes + 1]

    @pytest.mark.parametrize("n_modes", [1, 2, 8, 200, 4096])
    def test_each_kernel_sees_only_its_side_of_the_band(self, n_modes, monkeypatch):
        # the root sets name their kernels, and no solve needs another one at
        # any point: at the domain's corners the closed form only ever sees
        # 1 < u < N, the outer pair's forms only roots 0 and N, at u < 1 or
        # u > N, and the O(N) definition is never summed
        seen = {"closed": [np.empty(0)], "outer": [np.empty(0)], "direct": [np.empty(0)]}

        def recorded(name, kernel):
            def sums(m, s, n, powers, **shared):  # the inner split shares its cotangent
                seen[name].append(np.ravel(m + s))
                return kernel(m, s, n, powers, **shared)
            return sums

        for name in seen:
            kernel = f"_{name}_sum"
            monkeypatch.setattr(spectrum, kernel, recorded(name, getattr(spectrum, kernel)))
        for delta in (1e-3, 1.0, 1e3):
            for g in (0.02, 0.9):
                solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n_modes=n_modes))
        closed, outer = (np.concatenate(seen[name]) for name in ("closed", "outer"))
        assert len(seen["outer"]) > 1 and (len(seen["closed"]) > 1) == (n_modes > 1)
        assert len(seen["direct"]) == 1
        assert np.all((1.0 < closed) & (closed < n_modes))
        assert all(u.size <= 2 for u in seen["outer"])
        assert np.all((outer < 1.0) | (outer > n_modes))

    def test_convergence_failure_reports_interval(self, fig_params, monkeypatch):
        # the bisection hands back root 7 off by 1e-6 dw, still inside its
        # bracket: a relative Newton correction near 3e-7, far above 1e-10
        bisect = spectrum._bisect

        def bisect_missing_root_7(params, m, a, b, start):
            s = bisect(params, m, a, b, start)
            s[7] += 1e-6
            return s

        monkeypatch.setattr(spectrum, "_bisect", bisect_missing_root_7)
        with pytest.raises(ConvergenceFailure) as err:
            solve_eigenfrequencies(fig_params)
        assert err.value.interval_index == 7

    def test_nan_newton_check_names_root_0(self, fig_params, monkeypatch):
        # every newton_rel NaN: the check states what passes, so NaN fails it.
        # No record's spacing underflows dw^4 to 0 any more, so F is made NaN
        # (the slope kept at 1, since the spectrum refuses a NaN weight first)
        nan_f = lambda m, *_, **__: np.stack((np.full(m.size, np.nan), np.ones(m.size)))
        monkeypatch.setattr(spectrum, "_secular_sets", nan_f)
        with pytest.raises(ConvergenceFailure, match="root 0 residual nan") as err:
            solve_eigenfrequencies(fig_params)
        assert err.value.interval_index == 0

    def test_bisection_step_budget_reports_root(self, monkeypatch):
        # one step converges no root; the failure names the first left over
        p = DressedAtomParams(1.0, 0.5, 0.1, n_modes=3000)
        monkeypatch.setattr(spectrum, "_BISECT_STEPS", 1)
        with pytest.raises(ConvergenceFailure, match="root 0 ") as err:
            solve_eigenfrequencies(p)
        assert err.value.interval_index == 0


def _moment_defects(spec):
    """Relative defects, in eps, of the atom's spectral moment rules j = -1
    and j = 2, with lam = Omega^2 and each side summed by math.fsum:
    sum_r w_r / lam_r = 1 / omega_bar^2 and sum_r w_r lam_r^2 = (omega_bar^2 +
    N eta^2)^2 + eta^2 sum_k omega_k^2, the moments of B^j's atom entry for
    the arrowhead form B (the oracle's), whose Schur complement gives j = -1."""
    p, w, lam = spec.params, spec.weights, spec.bigomegas**2
    n = p.n_modes
    field = p.delta_omega**2 * (n * (n + 1) * (2 * n + 1) // 6)  # sum_k omega_k^2
    top = p.omega_bar**2 + n * p.eta_sq
    low = math.fsum(w / lam) * p.omega_bar**2 - 1.0
    high = math.fsum(w * lam * lam) / math.fsum((top * top, p.eta_sq * field)) - 1.0
    return abs(low) / np.finfo(float).eps, abs(high) / np.finfo(float).eps


def _seeded_spectra(count, counts, seed=3):
    """(omega_bar, g, delta, N) over the whole domain, N drawn from ``counts``."""
    rng = np.random.default_rng(seed)
    keys = []
    for _ in range(count):
        omega_bar = 10.0 ** rng.uniform(-1.0, 1.0)
        g = omega_bar * 10.0 ** rng.uniform(-6.0, np.log10(5.0))
        keys.append((omega_bar, g, 10.0 ** rng.uniform(-3.0, 3.0), int(rng.choice(counts))))
    return keys


# (omega_bar, g, delta, N) whose top root sits where a bound of its bracket is
# exact or nearly so: one mode at resonance (omega_bar = omega_1), where the
# upper bound is F itself; far top roots at delta = 1e3; roots hugging omega_N
# at weak coupling; an atom far above the band, where the lower bound nears
# the root
ONE_MODE_AT_RESONANCE = (1.0, 0.0031622776601683794, 0.0031622776601683794, 1)
TOP_BRACKET_EDGES = [ONE_MODE_AT_RESONANCE, (1.0, 0.5, 1e3, 1), (1.0, 0.5, 1e3, 2),
                     (10.0, 50.0, 1e3, 8), (1.0, 1e-3, 1e-3, 2), (1.0, 1e-3, 1e-3, 8),
                     (10.0, 1e-5, 1e3, 1), (10.0, 1e-5, 1e3, 8)]


class TestTopBracket:
    """The top root's bracket from F's two moment bounds, each widened by its
    rounding margin (:func:`spectrum._top_bracket`)."""

    @pytest.mark.parametrize("key", TOP_BRACKET_EDGES + _seeded_spectra(12, (1, 2, 8)), ids=str)
    def test_holds_the_exact_root(self, key):
        pytest.importorskip("mpmath")
        p = DressedAtomParams(*key)
        lo, hi = spectrum._top_bracket(p)
        ref = mpmath_secular_offset(p, p.n_modes, solve_eigenfrequencies(p).offsets[-1], dps=60)
        assert 0.0 <= lo < ref < hi

    def test_holds_the_solved_root(self):
        # a root outside its bracket would end on the bracket's end, where the
        # solve clips every point; the far and weak-coupling top roots included
        keys = (TOP_BRACKET_EDGES + [(0.1, 1e-7, 1e-3, 2000), (1.0, 0.5, 1e3, 3000)]
                + list(OUTER_STALLS) + list(OUTER_OFFSETS_FROZEN)
                + _seeded_spectra(200, (1, 2, 3, 8, 63, 64, 200, 3000)))
        for key in keys:
            p = DressedAtomParams(*key)
            lo, hi = spectrum._top_bracket(p)
            assert 0.0 <= lo < solve_eigenfrequencies(p).offsets[-1] < hi, key

    def test_one_mode_at_resonance_takes_few_splits(self, monkeypatch):
        # the upper bound is the root here, so without its margin the bracket
        # ends on the root, and the pair took 25 splits; 10 with it
        split = mock.Mock(wraps=spectrum._outer_split)
        monkeypatch.setattr(spectrum, "_outer_split", split)
        solve_eigenfrequencies(DressedAtomParams(*ONE_MODE_AT_RESONANCE))
        assert 0 < split.call_count <= 10


class TestMomentRules:
    """The negative rule watches root 0 and the positive rule the top root:
    an independent check on the two outer roots and their weights, which no
    other route reaches above the oracle's matrix cap."""

    def test_hold_within_eight_eps_across_the_domain(self):
        worst = [0.0, 0.0]
        for omega_bar, ratio, delta, n in itertools.product(
                (0.1, 1.0, 10.0), (1e-6, 0.02, 0.5, 0.99, 5.0), (1e-3, 0.1, 1.0, 1e3),
                (1, 63, 64, 2048, 16385)):
            spec = solve_eigenfrequencies(DressedAtomParams(omega_bar, ratio * omega_bar, delta, n))
            worst = np.maximum(worst, _moment_defects(spec))
        assert np.all(worst <= 8.0), worst

    @pytest.mark.parametrize("root, rule", [(0, 0), (-1, 1)], ids=["root-0", "top"])
    def test_a_shifted_outer_root_breaks_a_rule(self, fig_spectrum, root, rule):
        # one offset scaled by 1 + 1e-12 and the record derived again: root 0
        # moves j = -1 by thousands of eps, the top root j = 2 by about a hundred
        assert max(_moment_defects(fig_spectrum)) <= 8.0
        s = fig_spectrum.offsets.copy()
        s[root] *= 1.0 + 1e-12
        shifted = ModeSpectrum(fig_spectrum.params, fig_spectrum.asymptotes, s)
        assert _moment_defects(shifted)[rule] > 8.0


class TestInterlacingCheck:
    """ModeSpectrum admits root r < N only at m_r = r, 0 < s_r < 1 or at
    m_r = r + 1, -1 < s_r < 0, and the top root only at m_N = N, s_N > 0."""

    PARAMS = DressedAtomParams(1.0, 0.5, 0.1, n_modes=4)
    ASYMPTOTES = [0, 1, 3, 3, 4]
    OFFSETS = [0.5, 0.5, -0.5, 0.5, 0.2]

    def _spectrum(self, root=None, m=None, s=None):
        asymptotes, offsets = list(self.ASYMPTOTES), list(self.OFFSETS)
        if root is not None:
            asymptotes[root], offsets[root] = m, s
        return ModeSpectrum(params=self.PARAMS, asymptotes=asymptotes, offsets=offsets)

    def test_admits_both_sides_of_each_gap(self):
        spec = self._spectrum()
        om, bo = field_frequencies(spec.params), spec.bigomegas
        assert bo[0] < om[0] and np.all(bo[1:] > om) and np.all(bo[1:-1] < om[1:])

    @pytest.mark.parametrize("root, m, s", [
        (2, 3, -0.0),                    # on its asymptote, from above
        (1, 1, -0.25), (2, 3, 0.25),     # the wrong side of its asymptote
        (1, 1, 1.0), (2, 3, -1.0),       # a whole spacing or more away
        (1, 1, 0.7), (2, 3, -0.7),       # nearer the other end of the gap
        (1, 3, -0.5), (2, 1, 0.5),       # carried from an asymptote not its own
        (4, 5, -0.5),                    # the top root from omega_N+1
        (4, 4, 0.0), (4, 4, -0.25),      # the top root on or below omega_N
        (3, 3, np.nan),
    ], ids=["zero", "below-m", "above-m", "one", "minus-one", "from-far-end-above",
            "from-far-end-below", "far-above", "far-below",
            "top-from-n+1", "top-zero", "top-below", "nan"])
    def test_refuses_what_does_not_interlace(self, root, m, s):
        with pytest.raises(InvariantViolation,
                           match=rf"^root {root} at offset {s} from omega_{m} "):
            self._spectrum(root, m, s)


class TestWeakCoupling:
    """At weak coupling each root lies within a few ulps of its asymptote in
    the float Omega_r; its carried offset keeps the gap, and the spectrum,
    the matrix and the amplitudes follow from it."""

    @pytest.mark.parametrize("delta", [1e-3, 1.0, 1e3], ids=str)
    @pytest.mark.parametrize("g", [1e-30, 1e-20, 1e-15, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3], ids=str)
    def test_solves_without_warnings(self, g, delta):
        # the dense route up to N = 200; at N = 2048 the solve and a survival
        # trace from the atom weights, which never form the matrix
        times = np.linspace(0.0, 25.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 8, 200, 2048):
                spec = solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n))
                if n <= 200:
                    row = amplitude_row(build_matrix(spec), "atom", times)
                    assert np.abs(np.sum(np.abs(row) ** 2, axis=1) - 1.0).max() <= 1e-12
                else:
                    assert np.all(np.abs(survival_trace(spec, times).values) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("g, delta", [
        (1e-30, 1.0), (1e-20, 1e3), (1e-12, 1e-3), (1e-9, 0.1), (1e-5, 1e3)], ids=str)
    def test_offsets_within_four_eps_of_mpmath(self, g, delta):
        pytest.importorskip("mpmath")
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, g, delta, n_modes=8))
        ref = np.array([float(mpmath_secular_offset(spec.params, int(m), s))
                        for m, s in zip(spec.asymptotes, spec.offsets)])
        assert np.all(np.abs(spec.offsets - ref) <= 4 * np.finfo(float).eps * np.abs(ref))

    @pytest.mark.parametrize("g, delta, n_modes", [(1e-9, 0.1, 8), (1e-7, 1.0, 40)], ids=str)
    def test_matches_the_jacobi_oracle(self, g, delta, n_modes):
        p = DressedAtomParams(1.0, g, delta, n_modes=n_modes)
        spec = solve_eigenfrequencies(p)
        tm = build_matrix(spec)
        d = diagonalize(build_form(p))
        assert np.all(np.abs(spec.bigomegas / d.omegas - 1.0) <= 1e-12)
        assert np.abs(tm.t - d.vectors).max() <= 1e-12
        ratio = tm.t[1:] / tm.t[0]
        assert np.all(np.abs(d.vectors[1:] / d.vectors[0] - ratio) <= 1e-12 * (1.0 + np.abs(ratio)))
        times = np.linspace(0.0, 20.0, 9)
        survival = amplitude_row(tm, "atom", times)[:, 0]
        oracle = [oracle_amplitude(d, "atom", "atom", t) for t in times]
        assert np.abs(survival - oracle).max() <= 1e-12

    def test_no_split_lands_on_the_asymptote(self, monkeypatch):
        # root 0 is carried from omega_1 at 6.4e-18 of a spacing below it, and
        # its one-pole split rounds to offset 0, where F has its pole
        seen = []

        def recorded(split_at):
            def split(params, m, x, kernel):
                seen.append(x.copy())
                return split_at(params, m, x, kernel)
            return split

        for name in ("_inner_split", "_outer_split"):
            monkeypatch.setattr(spectrum, name, recorded(getattr(spectrum, name)))
        spec = solve_eigenfrequencies(DressedAtomParams(1.0, 1e-9, 0.1, n_modes=8))
        assert spec.asymptotes[0] == 1 and -1e-17 < spec.offsets[0] < 0.0
        assert np.all(np.concatenate(seen) != 0.0)


class TestOuterSums:
    """The outer pair's O(1) sums against 40-digit sums of the definition."""

    @staticmethod
    def _points(n):
        low = np.geomspace(1e-12, 0.5, 9)
        return (np.concatenate((np.zeros(9), np.ones(9), np.full(13, n))),
                np.concatenate((low, -low, np.geomspace(1e-12, 1e4, 13))))

    def test_reference_is_the_definition(self):
        # the outer pair's points, and inner roots that hug omega_m or lie midway
        mpmath = pytest.importorskip("mpmath")
        for n in (1, 8, 63):
            inner = [(m, s) for m in {1, n // 2, n - 1} if 0 < m < n
                     for s in (-0.5, -1e-9, 1e-9, 0.5)]
            for m, s in list(zip(*self._points(n))) + inner:
                with mpmath.workdps(80):
                    u = mpmath.mpf(m) + mpmath.mpf(float(s))
                    terms = [1 / (k * k - u * u) for k in range(1, n + 1)]
                    direct = mpmath.fsum(terms), mpmath.fsum(t * t for t in terms)
                    for got, want in zip(mpmath_mode_sums(n, m, s), direct):
                        assert abs(got / want - 1) < mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("n", [1, 2, 8, 9, 16, 17, 63, 64, 200, 16385, 100_000])
    def test_within_four_eps_of_the_exact_sums(self, n):
        # root 0 from omega_0 = 0 and from omega_1 (u < 1), the top root from
        # omega_N with offsets from 1e-12 to 1e4: S and S2, relative.  Root 0's
        # series coefficients are finite sums up to N = 16, Euler-Maclaurin
        # tails from N = 17
        pytest.importorskip("mpmath")
        m, s = self._points(n)
        got = _outer_sums(m, s, n, 2)
        ref = np.array([[float(v) for v in mpmath_mode_sums(n, mi, si)] for mi, si in zip(m, s)]).T
        assert np.all(np.abs(got / ref - 1.0) <= 4 * np.finfo(float).eps)

    @staticmethod
    def _spectra():
        """50 seeded spectra of the north-star domain (omega_bar, g/omega_bar and
        delta log-uniform, N log-uniform up to 1e5), the spectra of
        OUTER_STALLS, float32 omega_bar and g, and dw = 1e-57, where dw^4 is
        1e-228."""
        rng = np.random.default_rng(7)
        draw = lambda lo, hi: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for _ in range(50):
            omega_bar = draw(0.1, 10.0)
            yield (omega_bar, omega_bar * draw(1e-6, 5.0), draw(1e-3, 1e3),
                   round(draw(1.0, 1e5)))
        yield from OUTER_STALLS
        yield np.float32(1.1), np.float32(0.3), 0.1, 200
        yield 1e-50, 1e-47, 1e10, 8

    def test_one_root_gives_the_array_bits(self):
        # _secular on one outer root's int and float, all in plain floats,
        # against _secular on arrays fed the same sums: root 0 from omega_0 and
        # from omega_1, the top root from omega_N, and the bracket midpoints;
        # F alone and (F, slope); no NaN
        for key in self._spectra():
            p = DressedAtomParams(*key)
            n = p.n_modes
            m, s = self._points(n)
            m, s = np.append(m, [0, n]).astype(np.int64), np.append(s, [0.5, 0.5])
            with np.errstate(all="ignore"):
                for slope in (False, True):
                    want = spectrum._secular(m, s, p, _outer_sums, slope)
                    got = np.array([spectrum._secular(mi, si, p, spectrum._outer_sum, slope)
                                    for mi, si in zip(m.tolist(), s.tolist())]).T
                    assert np.array_equal(got, want, equal_nan=True), key
            assert not np.isnan(got).any(), key


class TestWeightBounds:
    """Each weight's derived rounding bound (``weight_bounds``) against the
    slope of 50-digit sums at the root's carried offset."""

    @pytest.mark.parametrize("omega_bar, g, delta, n", [
        (1.0, 0.5, 0.1, 2**14 - 1), (1.0, 0.5, 0.1, 2**14 + 1), (1.0, 0.5, 0.1, 2**17),
        (1.0, 0.5, 0.1, 10**6), (1.0, 0.5, 0.1, 2), (1.0, 0.02, 1e3, 8), (1.0, 0.5, 1e3, 8),
        (1.0, 1e-30, 1e-29, 16), (0.1, 10.0, 1e-3, 3000), (1.0, 5.0, 1e3, 600)])
    def test_covers_the_slope_error_against_50_digit_sums(self, omega_bar, g, delta, n):
        # the direct rows' sample: the outer pair and their neighbours, the roots
        # about omega_bar and about the digamma lift, and random roots
        mpmath = pytest.importorskip("mpmath")
        spec = solve_eigenfrequencies(DressedAtomParams(omega_bar, g, delta, n))
        bound, p = spec.weight_bounds(), spec.params
        with mpmath.workdps(50):
            scale = mpmath.mpf(p.eta_sq) / mpmath.mpf(p.delta_omega) ** 2
            for r in spec.direct_secular()[0]:
                m, s = int(spec.asymptotes[r]), float(spec.offsets[r])
                total, total2 = mpmath_mode_sums(n, m, s, dps=50)
                slope = 1 + scale * (total + (m + mpmath.mpf(s)) ** 2 * total2)
                assert abs(float(spec.weights[r]) * slope - 1) <= bound[r]

    def test_within_thirty_eps_across_the_domain(self):
        # the bound at the figure's parameters and at the ends of the domain
        for args in [(1.0, 0.5, 0.1, 200), (1.0, 1e-6, 1e-3, 3000), (10.0, 9.9, 1e3, 1)]:
            bound = solve_eigenfrequencies(DressedAtomParams(*args)).weight_bounds()
            assert np.all(bound <= 30 * np.finfo(float).eps)

    @pytest.mark.parametrize("args", [(1.0, 1.0, 1e76, 8), (1.25e-70, 1.25e-67, 1e10, 8)])
    def test_an_overflowing_slope_is_refused(self, args):
        # near the spacing floor the slope's S2 / dw^4 overflows and root 0's
        # weight would read 0: the record refuses it, naming the root, and no
        # RuntimeWarning escapes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormalizationFailure,
                               match=r"^root 0 atom weight 0\.000e\+00 is not finite and positive"):
                solve_eigenfrequencies(DressedAtomParams(*args))


class TestMidpoints:
    """The inner roots' midpoints u = r + 1/2, where the digamma tail is a sum
    of 2r + 1 terms 1/(k + 1/2) and one running sum gives every midpoint."""

    @pytest.mark.parametrize("n", [2, 3, 8, 63, 64, 16385, 100_000, 1_000_000])
    def test_tails_within_four_eps_of_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        tails = np.concatenate([tail for _, tail in spectrum._midpoint_tails(n)])
        assert tails.shape == (n - 1,)
        for r in sorted(r for r in {1, 2, n // 2, n - 2, n - 1} if 1 <= r < n):
            with mpmath.workdps(40):
                u = r + mpmath.mpf(1) / 2
                ref = mpmath.psi(0, n + 1 + u) - mpmath.psi(0, n + 1 - u)
                assert abs(tails[r - 1] - ref) <= 4 * np.finfo(float).eps * ref, r

    def test_plain_running_sum_misses(self):
        # numpy's cumsum adds left to right, so without the exact errors of its
        # additions the same terms drift far from the sum at N = 1e6
        mpmath = pytest.importorskip("mpmath")
        n = 1_000_000
        r = np.arange(1, n)
        plain = np.cumsum(1.0 / ((n + 0.5) - r) + 1.0 / ((n + 0.5) + r)) + 1.0 / (n + 0.5)
        with mpmath.workdps(40):
            u = n // 2 + mpmath.mpf(1) / 2
            ref = mpmath.psi(0, n + 1 + u) - mpmath.psi(0, n + 1 - u)
            assert abs(plain[n // 2 - 1] - ref) > 4 * np.finfo(float).eps * ref

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_north_star_spectra())
    # N = 1e5 at the domain's middle and corners
    @example((1.0, 0.5, 1.0, 100_000))
    @example((10.0, 50.0, 1e3, 100_000))
    @example((0.1, 1e-7, 1e-3, 100_000))
    def test_asymptote_choice_is_the_closed_forms(self, key):
        # F < 0 at the midpoint from the running sum chooses as F from the
        # digamma series does, at every inner root
        p = DressedAtomParams(*key[:3], n_modes=key[3])
        n = p.n_modes
        m, a, b, start = np.arange(n + 1), np.zeros(n + 1), np.full(n + 1, 0.5), np.empty(n + 1)
        spectrum._inner_starts(p, m, a, b, start)
        lower = np.arange(n + 1.0)
        below = spectrum._secular_sets(lower, np.full(n + 1, 0.5), p)[0] < 0.0
        assert np.array_equal(m[1:-1], np.where(below, lower, lower + 1)[1:-1])
        assert np.all((a[1:-1] <= start[1:-1]) & (start[1:-1] <= b[1:-1]) & (start[1:-1] != 0.0))


def _outer_sums(m, s, n, powers):
    """The outer pair's O(1) sums at arrays of offsets, one root at a time, stacked
    as the array kernels return them."""
    return np.array([spectrum._outer_sum(mi, si, n, powers)
                     for mi, si in zip(m.tolist(), s.tolist())]).T


def _psi_points():
    """(a, b) pairs as the closed-form sums produce them, a = N+1+u and
    b = (N+1-m) - s with u = m + s in [1, N] and s in (-1/2, 1/2], plus pairs
    spread over arguments from 1 to 3e5."""
    rng = np.random.default_rng(5)
    a, b = [], []
    for n in (8, 200, 100_000):
        m = np.concatenate((rng.integers(1, n + 1, 60), [1, 1, n - 9, n - 1, n, n]))
        s = np.concatenate((rng.uniform(-0.5, 0.5, 60), [0.0, 0.5, 0.31, 0.5, -0.5, 0.0]))
        s[s == -0.5] = 0.5  # keep s in (-1/2, 1/2]
        m = np.where(m + s > n, m - 1, np.where(m + s < 1, m + 1, m)).astype(float)
        a.append(n + 1 + (m + s))
        b.append((n + 1 - m) - s)
    grid = np.geomspace(1.0, 3e5, 40)
    a.append(grid)
    b.append(grid[::-1])
    return np.concatenate(a), np.concatenate(b)


class TestPsiPair:
    # the closed-form sums' psi(a) - psi(b) and psi'(a) + psi'(b) against
    # 30-digit mpmath: 4 eps, relative, or absolute where the value is below 1
    @pytest.mark.parametrize("deriv", [0, 1])
    def test_within_four_eps_of_mpmath(self, deriv):
        mpmath = pytest.importorskip("mpmath")
        a, b = _psi_points()
        got = spectrum._psi_pair(a, b, 1 + deriv)[deriv]
        with mpmath.workdps(30):
            sign = 1 if deriv else -1
            ref = np.array([float(mpmath.psi(deriv, mpmath.mpf(x))
                                  + sign * mpmath.psi(deriv, mpmath.mpf(y)))
                            for x, y in zip(a, b)])
        err = np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)
        assert err.max() <= 4 * np.finfo(float).eps

    def test_scalar_arguments_give_scalars(self):
        got = spectrum._psi_pair(np.float64(12.5), np.float64(3.25), 2)
        assert [np.shape(v) for v in got] == [(), ()]
        assert got == [v[0] for v in spectrum._psi_pair(np.array([12.5]), np.array([3.25]), 2)]
