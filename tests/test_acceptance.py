"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criterion 5b is expected to fail and is marked
strict-xfail: the quoted power-law floor constant sits a factor pi^2 above
the measured large-time tail (see the test body).
"""

import time

import numpy as np
import pytest

from dressedcavity import (
    DressedAtomParams,
    FreeSpaceParams,
    SuperpositionSpec,
    amplitude_row,
    amplitude_trace,
    build_form,
    build_matrix,
    diagonalize,
    entanglement_entropy,
    free_space_trace,
    impurity,
    oracle_amplitude,
    reduced_pair_matrix,
    single_atom_reduced,
    solve_eigenfrequencies,
    survival_sq_lower_bound,
    survival_trace,
    von_neumann_entropy,
)
from dressedcavity.cli import main as cli_main
from oracles import brute_force_grid, brute_force_imag_integral

OMEGA_BAR, G_COUPLING = 1.0, 0.5


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def fig200():
    p = DressedAtomParams(OMEGA_BAR, G_COUPLING, 0.1, n_modes=200)
    spec = solve_eigenfrequencies(p)
    return p, spec, build_matrix(spec)


def test_criterion_01_unitarity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(511)
    worst = 0.0
    for delta in (0.05, 0.1, 1.0, 10.0):
        p = DressedAtomParams(OMEGA_BAR, G_COUPLING, delta, n_modes=200)
        tm = build_matrix(solve_eigenfrequencies(p))
        times = np.sort(rng.uniform(0.0, 50.0, 100))
        for mu in ("atom", 1, 7):
            rows = amplitude_row(tm, mu, times)
            worst = max(worst, float(np.max(np.abs(np.sum(np.abs(rows) ** 2, axis=1) - 1.0))))
    elapsed = time.perf_counter() - start
    _report("1", worst <= 1e-6 and elapsed < 10.0,
            f"max unitarity defect {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 10s)")


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    worst_spec = worst_elem = worst_amp = 0.0
    for n in (10, 50, 200):
        p = DressedAtomParams(OMEGA_BAR, G_COUPLING, 0.1, n_modes=n)
        spec = solve_eigenfrequencies(p)
        tm = build_matrix(spec)
        decomp = diagonalize(build_form(p))
        worst_spec = max(worst_spec, float(np.max(
            np.abs(spec.bigomegas - decomp.omegas) / decomp.omegas)))
        worst_elem = max(worst_elem, float(np.max(
            np.abs(np.abs(tm.t) - np.abs(decomp.vectors)))))
        times = np.linspace(0.0, 40.0, 9)
        for f, t in zip(amplitude_trace(tm, "atom", "atom", times).values, times):
            worst_amp = max(worst_amp, abs(f - oracle_amplitude(decomp, "atom", "atom", t)))
    elapsed = time.perf_counter() - start
    ok = worst_spec <= 1e-8 and worst_elem <= 1e-8 and worst_amp <= 1e-8 and elapsed < 30.0
    _report("2", ok, f"spectra {worst_spec:.1e}, elements {worst_elem:.1e}, "
                     f"amplitudes {worst_amp:.1e} (tol 1e-8), {elapsed:.1f}s (< 30s)")


def test_criterion_03_small_cavity_spectrum():
    p = DressedAtomParams(OMEGA_BAR, G_COUPLING, 0.1, n_modes=400)
    roots = solve_eigenfrequencies(p).bigomegas
    low_ref = 0.89528
    low_err = abs(roots[0] - low_ref) / low_ref
    k = np.arange(1, 6)
    k_ref = (G_COUPLING / 0.1) * (k + 2 * 0.1 / (np.pi * k))
    k_err = float(np.max(np.abs(roots[1:6] - k_ref) / k_ref))
    _report("3", low_err <= 0.02 and k_err <= 0.01,
            f"lowest root {roots[0]:.5f} vs {low_ref} ({low_err:.2%}, tol 2%), "
            f"k=1..5 worst {k_err:.2%} (tol 1%)")


def test_criterion_04_small_cavity_survival_floor():
    times = np.linspace(0.0, 100.0, 8001)
    mins = {}
    for delta in (0.1, 0.05):
        p = DressedAtomParams(OMEGA_BAR, G_COUPLING, delta, n_modes=200)
        spec = solve_eigenfrequencies(p)
        vals = np.abs(survival_trace(spec, times).values) ** 2
        mins[delta] = float(vals.min())
    ok = mins[0.1] >= 0.36731 - 0.02 and mins[0.05] >= 0.64031 - 0.01
    _report("4", ok, f"min |f00|^2: delta=0.1 -> {mins[0.1]:.5f} (>= 0.34731), "
                     f"delta=0.05 -> {mins[0.05]:.5f} (>= 0.63031)")


def test_criterion_05a_free_space_decay_and_envelope():
    p = FreeSpaceParams(OMEGA_BAR, G_COUPLING)
    late = np.linspace(8.0 / G_COUPLING, 50.0, 120)
    decayed = float((np.abs(free_space_trace(p, late).values) ** 2).max())
    dense = np.linspace(0.0, 30.0, 601)
    mags = np.abs(free_space_trace(p, dense).values) ** 2
    window = 2 * np.pi / OMEGA_BAR
    maxima = [mags[(dense >= i * window) & (dense < (i + 1) * window)].max()
              for i in range(int(dense[-1] / window))]
    monotone = bool(np.all(np.diff(maxima) <= 1e-12))
    _report("5a", decayed < 1e-3 and monotone,
            f"|f00|^2 <= {decayed:.2e} for t >= 8/g (tol 1e-3); "
            f"running envelope non-increasing: {monotone}")


@pytest.mark.xfail(
    strict=True,
    reason="the quoted floor 64 g^2 / (omega_bar^8 t^6) is pi^2 larger than the "
           "measured tail of |f00|^2, which follows (8g/(pi omega_bar^4 t^3))^2; "
           "ratio sits near 0.10, far outside the stated 20%",
)
def test_criterion_05b_free_space_power_law_floor():
    p = FreeSpaceParams(OMEGA_BAR, G_COUPLING)
    times = np.linspace(20.0, 50.0, 7)
    measured = np.abs(free_space_trace(p, times).values) ** 2
    floor = 64.0 * G_COUPLING**2 / (OMEGA_BAR**8 * times**6)
    ratios = list(measured / floor)
    ok = all(0.8 <= r <= 1.2 for r in ratios)
    _report("5b", ok, f"|f00|^2 / floor ratios {np.round(ratios, 3)} (need 0.8..1.2)")


def test_criterion_06_impurity_figure_reproduction(tmp_path):
    # reference-figure defaults: g=0.5, delta=0.1, omega_bar=1, t in [0, 25]
    rc = cli_main(["impurity", "--out", str(tmp_path)])
    assert rc == 0
    small = np.genfromtxt(tmp_path / "impurity_small_cavity.csv", delimiter=",",
                          names=True)
    free = np.genfromtxt(tmp_path / "impurity_free_space.csv", delimiter=",",
                         names=True)
    d_small, d_free, t = small["D"], free["D"], free["t"]
    free_decays = float(d_free[t >= 20.0].max()) < 1e-3
    inside = bool(np.all((d_small[1:] > 0.0) & (d_small[1:] <= 0.5 + 1e-12)))
    peaks = int(np.sum((d_small[1:-1] > d_small[:-2]) & (d_small[1:-1] > d_small[2:])))
    _report("6", free_decays and inside and peaks >= 3,
            f"free-space D tail {d_free[-1]:.1e} (< 1e-3), small-cavity D in (0, 0.5] "
            f"with {peaks} oscillation peaks")


def test_criterion_07_entropy_constancy():
    times = np.linspace(0.0, 50.0, 1000)
    worst = 0.0
    regimes = {
        "small": DressedAtomParams(OMEGA_BAR, G_COUPLING, 0.1, n_modes=200),
        "large": DressedAtomParams(OMEGA_BAR, G_COUPLING, 50.0, n_modes=1500),
    }
    for params in regimes.values():
        tm = build_matrix(solve_eigenfrequencies(params))
        rows = amplitude_row(tm, "atom", times)
        for xi in (0.1, 0.25, 0.5, 0.9):
            expected = entanglement_entropy(xi)
            for phi in (0.0, np.pi / 2):
                spec = SuperpositionSpec(xi, phi)
                for i, t in enumerate(times):
                    e = von_neumann_entropy(single_atom_reduced(rows[i], spec, t))
                    worst = max(worst, abs(e - expected))
    ln2_check = abs(entanglement_entropy(0.5) - 0.693147) < 1e-6
    _report("7", worst <= 1e-8 and ln2_check,
            f"max |E(t) - E_analytic| = {worst:.2e} (tol 1e-8); E(0.5) = ln 2")


def test_criterion_08_trace_and_positivity(fig200):
    p, spec, tm = fig200
    times = np.linspace(0.0, 25.0, 201)
    f_small = amplitude_trace(tm, "atom", "atom", times).values
    f_free = free_space_trace(FreeSpaceParams(OMEGA_BAR, G_COUPLING), times).values
    worst_trace = worst_eig = 0.0
    for f_vals in (f_small, f_free):
        for xi in (0.25, 0.5, 0.75):
            for phi in (0.0, 1.3):
                sup = SuperpositionSpec(xi, phi)
                for i, t in enumerate(times):
                    m = reduced_pair_matrix(f_vals[i], f_vals[i], sup, t)
                    dense = m.as_matrix()
                    assert np.array_equal(dense, dense.conj().T)
                    worst_trace = max(worst_trace,
                                      abs(float(np.trace(dense).real) - 1.0))
                    worst_eig = min(worst_eig, float(np.linalg.eigvalsh(dense).min()))
    ok = worst_trace <= 1e-9 and worst_eig >= -1e-9
    _report("8", ok, f"max trace defect {worst_trace:.1e} (tol 1e-9), "
                     f"min eigenvalue {worst_eig:.1e} (>= -1e-9)")


def test_criterion_09_impurity_ignores_superposition_weight(fig200):
    p, spec, tm = fig200
    times = np.linspace(0.0, 25.0, 301)
    f00 = amplitude_trace(tm, "atom", "atom", times).values
    traces = []
    for xi in np.linspace(0.1, 0.9, 9):
        sup = SuperpositionSpec(xi, 0.7)
        traces.append([impurity(reduced_pair_matrix(f, f, sup, t))
                       for f, t in zip(f00, times)])
    spread = float(np.max(np.ptp(np.array(traces), axis=0)))
    _report("9", spread <= 1e-12,
            f"pointwise spread of D over 9 xi values {spread:.2e} (tol 1e-12)")


def test_criterion_10_sine_integral_against_brute_force():
    start = time.perf_counter()
    grid = brute_force_grid(OMEGA_BAR, G_COUPLING)
    times = np.array([0.5, 1.0, 2.0, 5.0])
    fast = free_space_trace(FreeSpaceParams(OMEGA_BAR, G_COUPLING), times).values.imag
    worst = 0.0
    for f, t in zip(fast, times):
        brute = brute_force_imag_integral(t, OMEGA_BAR, G_COUPLING, grid=grid)
        worst = max(worst, abs(f - brute))
    elapsed = time.perf_counter() - start
    _report("10", worst <= 1e-6 and elapsed < 5.0,
            f"max |fast - brute| = {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 5s)")
