import numpy as np
import pytest

from dressedcavity import (
    ConvergenceFailure,
    DressedAtomParams,
    RegimeViolation,
    approx_small_cavity_elements,
    cotangent_residual,
    field_frequencies,
    secular_residual,
    solve_eigenfrequencies,
)
from dressedcavity import spectrum
from dressedcavity.spectrum import first_order_frequencies
from oracles import dlasd4_inner_roots

# frozen first-order values at delta=0.1, g=0.5, omega_bar=1 (direct evaluation)
OM0_APPROX = 0.8952802448803402
OM1_APPROX = 5.3183098861837905
OM2_APPROX = 10.159154943091895

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
        p = DressedAtomParams(omega_bar=1.0, g=0.5, radius=2.0, n_modes=5)
        assert p.delta_omega * p.radius == pytest.approx(np.pi, rel=1e-15)
        assert p.eta**2 == pytest.approx(4 * p.g * p.delta_omega / np.pi, rel=1e-15)
        assert p.delta == pytest.approx(p.g * p.radius / np.pi, rel=1e-15)

    def test_from_delta_round_trip(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=3)
        assert p.delta == pytest.approx(0.1, rel=1e-15)
        assert p.delta_omega == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [
        dict(omega_bar=-1.0, g=0.5, radius=1.0),
        dict(omega_bar=1.0, g=0.0, radius=1.0),
        dict(omega_bar=1.0, g=0.5, radius=-2.0),
        dict(omega_bar=1.0, g=0.5, radius=1.0, n_modes=0),
        # finite, but omega_bar^2, g^2, N eta^2, (N dw)^2 or dw^4 overflows
        dict(omega_bar=1e200, g=1.0, radius=1.0),
        dict(omega_bar=1.0, g=1e200, radius=1.0),
        dict(omega_bar=1.0, g=1e300, radius=1e-10, n_modes=10),
        dict(omega_bar=1.0, g=1.0, radius=1e-300, n_modes=10**6),
        dict(omega_bar=1.0, g=1.0, radius=1e-80, n_modes=1),
        # g R underflows, so delta = g R / pi would read 0
        dict(omega_bar=1.0, g=1e-300, radius=3.14e-70, n_modes=8),
    ])
    def test_rejects_bad_inputs(self, bad):
        with pytest.raises(ValueError):
            DressedAtomParams(**bad)


class TestFieldFrequencies:
    def test_unit_spacing(self):
        p = DressedAtomParams(omega_bar=1.0, g=0.1, radius=np.pi, n_modes=3)
        assert field_frequencies(p) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)

    def test_pi_spacing(self):
        p = DressedAtomParams(omega_bar=1.0, g=0.1, radius=1.0, n_modes=2)
        assert field_frequencies(p) == pytest.approx([np.pi, 2 * np.pi], rel=1e-15)

    def test_delta_parameterization(self):
        # delta=0.1, g=0.5 puts the first mode at g/delta = 5
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=1)
        assert field_frequencies(p) == pytest.approx([5.0], rel=1e-14)


class TestSolve:
    def test_lowest_root_near_first_order_value(self, fig_spectrum):
        assert fig_spectrum.bigomegas[0] == pytest.approx(OM0_APPROX, rel=0.02)

    def test_field_roots_near_first_order_values(self, fig_spectrum):
        assert fig_spectrum.bigomegas[1] == pytest.approx(OM1_APPROX, rel=0.01)
        assert fig_spectrum.bigomegas[2] == pytest.approx(OM2_APPROX, rel=0.01)

    def test_interlacing(self, fig_spectrum):
        om, bo = fig_spectrum.omegas, fig_spectrum.bigomegas
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
        p = DressedAtomParams.from_delta(1.0, g, delta, n_modes=n_modes)
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
        f, slope = spectrum._secular_sets(m, s, p, slope=True)
        expected = np.abs(f) / slope / fig_spectrum.bigomegas**2
        np.testing.assert_allclose(fig_spectrum.newton_rel, expected, rtol=1e-15, atol=0.0)
        assert fig_spectrum.newton_rel.max() <= 1e-10
        assert not fig_spectrum.newton_rel.flags.writeable

    def test_cotangent_residual_shrinks_with_mode_count(self):
        # the truncated secular roots approach the infinite-cavity condition
        res = {}
        for n in (50, 400, 1600):
            p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=n)
            spec = solve_eigenfrequencies(p)
            res[n] = abs(cotangent_residual(spec.bigomegas[0], p))
        assert res[400] < 0.2 * res[50]
        assert res[1600] < 0.3 * res[400]
        assert res[1600] < 1e-4

    def test_closed_form_evaluator_matches_direct(self):
        # lam below omega_1, inside (omega_1, omega_N) and above omega_N: the
        # closed form inside, the direct sum outside, each in units of dw^-2
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.3, n_modes=120)
        lam = np.array([0.37, 3.1, 26.0, 311.7, 4001.0, 52000.0])
        gaps = field_frequencies(p)[None, :] ** 2 - lam[:, None]
        u = np.sqrt(lam) / p.delta_omega
        m = np.rint(u)
        inside = (u >= 1.0) & (u <= p.n_modes)
        assert inside.any() and not inside.all()
        for kernel, at in ((spectrum._closed_sum, inside), (spectrum._direct_sum, ~inside)):
            s1, s2 = kernel(m[at], (u - m)[at], p.n_modes, 2)
            assert s1 / p.delta_omega**2 == pytest.approx(
                np.sum(1.0 / gaps[at], axis=1), rel=1e-11)
            assert s2 / p.delta_omega**4 == pytest.approx(
                np.sum(1.0 / gaps[at] ** 2, axis=1), rel=1e-11)

    def test_closed_form_solver_matches_direct_solver(self):
        for n in (150, 2048):
            p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=n)
            roots = solve_eigenfrequencies(p).bigomegas[1:-1]
            lapack = dlasd4_inner_roots(p.omega_bar, p.eta_sq, field_frequencies(p))
            assert roots == pytest.approx(lapack, rel=1e-12)

    def test_inner_roots_match_high_precision_reference(self):
        p = DressedAtomParams.from_delta(5.566964054792819, 0.10780328649942257,
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
        p = DressedAtomParams.from_delta(1.0, 0.01, 100.0, n_modes=2048)
        roots = solve_eigenfrequencies(p).bigomegas[[0, -1]]
        ref = np.array(OUTER_ROOTS_FROZEN)
        assert np.all(np.abs(roots - ref) <= 4 * np.spacing(ref))

    @pytest.mark.parametrize("key", list(OUTER_OFFSETS_FROZEN), ids=str)
    def test_outer_offsets_match_high_precision_reference(self, key):
        p = DressedAtomParams.from_delta(*key[:3], n_modes=key[3])
        spec = solve_eigenfrequencies(p)
        (m0, s0), (mn, sn) = OUTER_OFFSETS_FROZEN[key]
        assert list(spec.asymptotes[[0, -1]]) == [m0, mn]
        ref = np.array([s0, sn])
        assert np.all(np.abs(spec.offsets[[0, -1]] - ref) <= 4 * np.finfo(float).eps * np.abs(ref))

    @pytest.mark.parametrize("key", list(OUTER_OFFSETS_FROZEN), ids=str)
    def test_outer_roots_take_few_direct_sums(self, key, monkeypatch):
        # each step of the outer pair is one direct-sum evaluation of F and F';
        # the one-pole split needs at most 16 of them, halving took about 60
        outer_split, steps = spectrum._outer_split, []

        def counted(params, m, x, kernel):
            steps.append(m.size)
            return outer_split(params, m, x, kernel)

        monkeypatch.setattr(spectrum, "_outer_split", counted)
        solve_eigenfrequencies(DressedAtomParams.from_delta(*key[:3], n_modes=key[3]))
        assert 0 < len(steps) <= 16

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
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=10_000)
        spec = solve_eigenfrequencies(p)
        assert spec.bigomegas.size == 10_001

    def test_one_bisection_pass_per_solve(self, fig_params, monkeypatch):
        # all N+1 roots, inner and outer, go through one call
        bisect, sizes = spectrum._bisect, []

        def counted(params, m, a, b):
            sizes.append(m.size)
            return bisect(params, m, a, b)

        monkeypatch.setattr(spectrum, "_bisect", counted)
        solve_eigenfrequencies(fig_params)
        assert sizes == [fig_params.n_modes + 1]

    @pytest.mark.parametrize("n_modes", [1, 2, 8, 200, 4096])
    def test_each_kernel_sees_only_its_side_of_the_band(self, n_modes, monkeypatch):
        # the root sets name their kernels, and no solve needs the other one
        # at any point: at the domain's corners the closed form only ever sees
        # 1 < u < N, and the direct sum only roots 0 and N, at u < 1 or u > N
        seen = {"closed": [np.empty(0)], "direct": [np.empty(0)]}

        def recorded(name, kernel):
            def sums(m, s, n, powers):
                seen[name].append(np.ravel(m + s))
                return kernel(m, s, n, powers)
            return sums

        monkeypatch.setattr(spectrum, "_closed_sum", recorded("closed", spectrum._closed_sum))
        monkeypatch.setattr(spectrum, "_direct_sum", recorded("direct", spectrum._direct_sum))
        for delta in (1e-3, 1.0, 1e3):
            for g in (0.02, 0.9):
                solve_eigenfrequencies(DressedAtomParams.from_delta(1.0, g, delta, n_modes=n_modes))
        closed, direct = (np.concatenate(seen[name]) for name in ("closed", "direct"))
        assert len(seen["direct"]) > 1 and (len(seen["closed"]) > 1) == (n_modes > 1)
        assert np.all((1.0 < closed) & (closed < n_modes))
        assert all(u.size <= 2 for u in seen["direct"])
        assert np.all((direct < 1.0) | (direct > n_modes))

    def test_convergence_failure_reports_interval(self, fig_params, monkeypatch):
        # the bisection hands back root 7 off by 1e-6 dw, still inside its
        # bracket: a relative Newton correction near 3e-7, far above 1e-10
        bisect = spectrum._bisect

        def bisect_missing_root_7(params, m, a, b):
            s = bisect(params, m, a, b)
            s[7] += 1e-6
            return s

        monkeypatch.setattr(spectrum, "_bisect", bisect_missing_root_7)
        with pytest.raises(ConvergenceFailure) as err:
            solve_eigenfrequencies(fig_params)
        assert err.value.interval_index == 7

    def test_nan_newton_check_names_root_0(self):
        # at R = 1e300, dw^2 underflows to 0 and every newton_rel is NaN;
        # the check states what passes, so NaN fails it
        p = DressedAtomParams(1.0, 1.0, 1e300, n_modes=8)
        with np.errstate(all="ignore"), \
                pytest.raises(ConvergenceFailure, match="root 0 residual nan") as err:
            solve_eigenfrequencies(p)
        assert err.value.interval_index == 0

    def test_bisection_step_budget_reports_root(self, monkeypatch):
        # one step converges no root; the failure names the first left over
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=3000)
        monkeypatch.setattr(spectrum, "_BISECT_STEPS", 1)
        with pytest.raises(ConvergenceFailure, match="root 0 ") as err:
            solve_eigenfrequencies(p)
        assert err.value.interval_index == 0


class TestSmallCavityApprox:
    def test_lowest_frequency(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.1, n_modes=4)
        freqs = first_order_frequencies(p, 4)
        assert freqs[0] == pytest.approx(OM0_APPROX, rel=1e-12)
        assert freqs[2] == pytest.approx(OM2_APPROX, rel=1e-12)

    def test_decoupling_limit(self):
        p = DressedAtomParams.from_delta(1.0, 0.5, 1e-9, n_modes=2)
        assert first_order_frequencies(p, 2)[0] == pytest.approx(1.0, abs=1e-8)

    def test_regime_gate(self):
        # the series the first-order frequencies feed is gated on delta
        p = DressedAtomParams.from_delta(1.0, 0.5, 0.5, n_modes=4)
        with pytest.raises(RegimeViolation):
            approx_small_cavity_elements(p, 4)

    def test_matches_exact_roots_at_small_delta(self):
        # leading-order error stays below 5 delta^2 for the first ten gaps
        delta = 0.01
        p = DressedAtomParams.from_delta(1.0, 0.5, delta, n_modes=200)
        exact = solve_eigenfrequencies(p).bigomegas[:11]
        approx = first_order_frequencies(p, 10)
        assert np.max(np.abs(exact - approx) / exact) < 5 * delta**2


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
