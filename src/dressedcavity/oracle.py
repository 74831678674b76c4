"""Brute-force verifier: diagonalize the coupled quadratic form directly.

The analytic pipeline (bracketed secular roots, ratio-built eigencolumns,
phase-summed amplitudes) is checked against a plain dense symmetric
eigensolve of the (N+1) x (N+1) matrix

    B[0,0] = omega_bar^2 + N eta^2      (bare atom frequency, counterterm in)
    B[k,k] = omega_k^2
    B[0,k] = B[k,0] = -eta omega_k,

whose characteristic equation is exactly the truncated secular equation.
The eigensolver is an in-repo round-robin Jacobi method, so the comparison
never shares code with the pipeline it is checking; it is kept over LAPACK,
which fails the 1e-8 checks at some points of the domain, for its relative
accuracy (see :func:`jacobi_eigh`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coupling
from .coupling import row_index
from .dynamics import amplitude_trace
from .errors import ConvergenceFailure, InvariantViolation, freeze, require
from .spectrum import DressedAtomParams, field_frequencies, solve_eigenfrequencies

__all__ = [
    "QuadraticForm",
    "OracleDecomposition",
    "build_form",
    "diagonalize",
    "oracle_amplitude",
    "run_cross_checks",
]

_RESIDUAL_TOL = 1e-10  # on max |B v - v lam|, relative to max |lam|

_CHECK_TIMES = np.linspace(0.0, 20.0, 9)  # survival amplitudes compared here

_MAX_SWEEPS = 100  # Jacobi sweeps before jacobi_eigh gives up

_SAMPLE = 64  # roots that the direct rows sum at, at most


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric coordinate-space matrix of the coupled oscillator system."""

    params: DressedAtomParams
    matrix: np.ndarray

    def __post_init__(self):
        freeze(self, matrix=np.asarray(self.matrix, dtype=float))
        b = self.matrix
        n1 = self.params.n_modes + 1
        if b.shape != (n1, n1):
            raise InvariantViolation(f"form must be {n1}x{n1}, got {b.shape}")
        require(np.array_equal(b, b.T), InvariantViolation, "form must be symmetric")
        require(np.diag(b) > 0, InvariantViolation, "diagonal entries must be positive")


def build_form(params: DressedAtomParams) -> QuadraticForm:
    """Assemble B with the bare atom frequency omega_bar^2 + N eta^2."""
    n = params.n_modes
    wk = field_frequencies(params)
    b = np.zeros((n + 1, n + 1))
    b[0, 0] = params.omega_bar**2 + n * params.eta_sq
    b[np.arange(1, n + 1), np.arange(1, n + 1)] = wk**2
    b[0, 1:] = -params.eta * wk
    b[1:, 0] = -params.eta * wk
    return QuadraticForm(params=params, matrix=b)


def _round_robin(n: int) -> np.ndarray:
    """The pairs (p, q), p < q, of one Jacobi sweep of order n by the circle
    method, as a (rounds, pairs, 2) array: n - 1 rounds of n/2 disjoint pairs.
    An odd order gains a phantom index n, and each round drops the pair that
    holds it, so it never rotates: n rounds of (n - 1)/2 pairs.

    With m = n + n % 2 seats, index 0 keeps seat 0 and in round r seat i >= 1
    holds 1 + (i - 1 - r) mod (m - 1), so every unordered pair meets exactly
    once per sweep.
    """
    m = n + n % 2
    r, i = np.ogrid[:m - 1, :m]
    seats = np.where(i > 0, 1 + (i - 1 - r) % (m - 1), 0)
    facing = seats[:, ::-1][:, :m // 2]  # seat i faces seat m - 1 - i
    pairs = np.sort(np.stack((seats[:, :m // 2], facing), axis=-1), axis=-1)
    return pairs[pairs[..., 1] < n].reshape(m - 1, -1, 2)


def jacobi_eigh(matrix: np.ndarray):
    """Jacobi diagonalization of a symmetric matrix in round-robin order.

    Each sweep takes the pairs of :func:`_round_robin` round by round (the
    parallel ordering of Brent & Luk, SIAM J. Sci. Stat. Comput. 6, 1985).
    The pairs of a round are disjoint, so their rotations commute and are
    applied at once: the rows of A and V^T together, as one array holds both
    side by side, then the columns of A.  Per pair the rules are those of the
    cyclic sweep: on sweeps 1-3 a pair with |a_pq| <= 0.2 off / n^2 is skipped
    (off the sum of the off-diagonal |a|); after sweep 4 an a_pq negligible
    against both diagonal entries is set to 0.  The sweeps end when every
    off-diagonal entry is exactly 0.  Jacobi keeps the relative accuracy of
    graded positive-definite matrices (Demmel & Veselic, SIAM J. Matrix Anal.
    Appl. 13, 1992), which QR-type solvers lack.

    Returns (eigenvalues ascending, eigenvector columns).  Raises
    :class:`ConvergenceFailure` if the off-diagonal mass has not annihilated
    within _MAX_SWEEPS full sweeps.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if n <= 1:
        return np.diag(a).copy(), np.eye(n)
    av = np.hstack((a, np.eye(n)))  # [A V^T]: V's column rotations are row rotations
    a = av[:, :n]
    schedule = _round_robin(n)
    for sweep in range(1, _MAX_SWEEPS + 1):
        strict = np.abs(a)
        np.fill_diagonal(strict, 0.0)
        off = float(np.sum(strict))
        if off == 0.0:
            break
        # skip tiny rotations during early sweeps, then clean everything
        thresh = 0.2 * off / (n * n) if sweep < 4 else 0.0
        for pairs in schedule:
            p, q = pairs.T
            apq = a[p, q]
            live = np.abs(apq) > thresh
            if sweep > 4:
                app, aqq, guard = np.abs(a[p, p]), np.abs(a[q, q]), 100.0 * np.abs(apq)
                tiny = (app + guard == app) & (aqq + guard == aqq)
                if tiny.any():
                    a[p[tiny], q[tiny]] = a[q[tiny], p[tiny]] = 0.0
                    live &= ~tiny
            if not live.any():
                continue
            pairs, apq = pairs[live], apq[live]
            p, q = pairs.T
            h = a[q, q] - a[p, p]
            theta = 0.5 * h / apq
            t = np.where(theta < 0.0, -1.0, 1.0) / (np.abs(theta) + np.hypot(1.0, theta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # rows (x_p, x_q) <- g (x_p, x_q) of [A V^T], then of A^T: gather, products, scatter
            g = np.stack((c, -s, s, c), axis=-1).reshape(-1, 2, 2)
            rows = pairs.ravel()
            av[rows] = (g @ av[rows].reshape(-1, 2, 2 * n)).reshape(-1, 2 * n)
            a.T[rows] = (g @ a.T[rows].reshape(-1, 2, n)).reshape(-1, n)
            a[p, q] = a[q, p] = 0.0
    else:
        raise ConvergenceFailure(f"Jacobi sweeps did not converge within {_MAX_SWEEPS} sweeps")
    lam = np.diag(a)
    order = np.argsort(lam)
    return lam[order], av[order, n:].T


@dataclass(frozen=True)
class OracleDecomposition:
    """Eigenpairs of the quadratic form, sign-fixed like the pipeline."""

    form: QuadraticForm
    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        freeze(self, eigenvalues=np.asarray(self.eigenvalues, dtype=float),
               vectors=np.asarray(self.vectors, dtype=float))

    @property
    def omegas(self) -> np.ndarray:
        return np.sqrt(self.eigenvalues)


def diagonalize(form: QuadraticForm) -> OracleDecomposition:
    """Full symmetric eigensolve with residual and sign-convention fixes."""
    lam, v = jacobi_eigh(form.matrix)
    require(lam > 0, InvariantViolation, "non-positive eigenvalue: inputs left the harmonic branch")
    # t_atom^r > 0; fall back to the largest component for decoupled columns
    pivot = np.where(v[0] != 0.0, v[0], v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])])
    v *= np.where(pivot < 0.0, -1.0, 1.0)
    scale = np.max(np.abs(lam))
    resid = np.max(np.abs(form.matrix @ v - v * lam), axis=0)
    require(resid <= _RESIDUAL_TOL * scale, ConvergenceFailure,
            "eigenpair {i} residual {:.3e} exceeds {:.1e} * |B|", resid, _RESIDUAL_TOL)
    return OracleDecomposition(form=form, eigenvalues=lam, vectors=v)


def oracle_amplitude(decomp: OracleDecomposition, mu, nu, t: float) -> complex:
    """sum_r v_mu^r v_nu^r exp(-i Omega_r t) from the oracle eigenpairs."""
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    n = decomp.form.params.n_modes
    i, j = row_index(mu, n), row_index(nu, n)
    phases = np.exp(-1j * decomp.omegas * t)
    return complex(np.sum(decomp.vectors[i, :] * decomp.vectors[j, :] * phases))


@dataclass(frozen=True)
class CheckRow:
    """One cross-check of :func:`run_cross_checks`: its largest error and tolerance."""

    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


def run_cross_checks(params: DressedAtomParams) -> list[CheckRow]:
    """Compare the analytic pipeline against independent routes.

    Where N <= ``coupling.MATRIX_MODE_CAP``, against the diagonalization
    oracle: spectra (relative), transformation elements (absolute, both sign
    conventions aligned), survival amplitudes at nine times in [0, 20]
    (absolute), the eigenvector ratio t_k^r / t_atom^r of the oracle's
    vectors against the pipeline's columns, which form it from the roots'
    offsets (relative to 1 + |ratio|), and the quadratic-form reconstruction.
    At every N, F and the weights against the definition's sums at a sample
    of roots (:func:`_direct_rows`).
    """
    spec = solve_eigenfrequencies(params)
    rows = []
    if params.n_modes <= coupling.MATRIX_MODE_CAP:
        tm = coupling.build_matrix(spec)
        dense = tm.t
        decomp = diagonalize(build_form(params))
        rel = np.max(np.abs(spec.bigomegas - decomp.omegas) / decomp.omegas)
        rows.append(CheckRow("spectrum_relative", float(rel), 1e-8))

        elem = np.max(np.abs(np.abs(dense) - np.abs(decomp.vectors)))
        rows.append(CheckRow("elements_absolute", float(elem), 1e-8))

        survival = amplitude_trace(tm, "atom", "atom", _CHECK_TIMES).values
        amp = max(abs(f - oracle_amplitude(decomp, "atom", "atom", t))
                  for f, t in zip(survival, _CHECK_TIMES))
        rows.append(CheckRow("survival_amplitude_absolute", float(amp), 1e-8))

        expected = dense[1:] / dense[0]
        ratio_err = np.max(np.abs(decomp.vectors[1:] / decomp.vectors[0] - expected)
                           / (1.0 + np.abs(expected)))
        rows.append(CheckRow("eigenvector_ratio", float(ratio_err), 1e-8))

        b = decomp.form.matrix
        recon = (dense * spec.bigomegas**2) @ dense.T
        recon_err = np.max(np.abs(recon - b)) / field_frequencies(params)[-1] ** 2
        rows.append(CheckRow("reconstruction", float(recon_err), 1e-6))

        recon_o = (decomp.vectors * decomp.eigenvalues) @ decomp.vectors.T
        scale = np.max(np.abs(decomp.eigenvalues))
        rows.append(CheckRow("oracle_self_reconstruction",
                             float(np.max(np.abs(recon_o - b)) / scale), 1e-8))
    return rows + _direct_rows(spec)


def _sample_roots(spec) -> np.ndarray:
    """At most ``_SAMPLE`` roots, every root below that: the outer pair and
    its inner neighbours 1 and N-1, the two roots about omega_bar, the two
    about b = N+1-v = 10, where the closed form's digamma starts to lift its
    argument, and the rest drawn without replacement, seeded by N."""
    n = spec.params.n_modes
    near = np.searchsorted(spec.bigomegas, spec.params.omega_bar)
    lift = np.searchsorted(spec.asymptotes + spec.offsets, n - 9.0)
    fixed = np.clip([0, 1, near - 1, near, lift - 1, lift, n - 1, n], 0, n).tolist()
    drawn = np.random.default_rng(n).choice(n + 1, min(n + 1, _SAMPLE), replace=False).tolist()
    return np.sort(list(dict.fromkeys(fixed + drawn))[:_SAMPLE])


def _direct_rows(spec) -> list[CheckRow]:
    """F and |F'| summed term by term (:meth:`ModeSpectrum.direct_secular`) at
    :func:`_sample_roots`, each row its largest ratio to its bound (tol 1).

    Each term 1/((k - m - s)(k + m + s)) rounds within 5u and their sum within
    gamma_(N-1) of their moduli, A = sum |1/(k^2 - v^2)| for S (the outer
    pair's |S|, one sign, which F gives as |omega_bar^2 - Omega^2 - F| /
    (eta v)^2; an inner root's at most (1/|s| + 5 + 3 ln(2N+1)) / (2v), from
    sum 1/|k - v| <= 1/|s| + 4 + 2 ln 2N and sum 1/(k + v) <= 1 + ln(2N+1)),
    S2 for S2; _secular adds 24 roundings: gamma = gamma_(N+32) bounds the
    route relative to its terms.  So F lies within gamma ((omega_bar +
    Omega)(|omega_bar - Omega| + dw (|s| + tail)) + eta^2 v^2 A + |F|) of the
    exact F, which ``raised_residuals`` bounds, and w |F'| - 1 within u (1 +
    w |F'|) + gamma w (|F'| - 1 + 2 (eta/dw)^2 A) of the exact one, which
    ``weight_bounds`` bounds.
    """
    p, roots = spec.params, _sample_roots(spec)
    n, u = p.n_modes, 0.5 * np.finfo(float).eps
    gamma = (n + 32) * u / (1.0 - (n + 32) * u)
    m, s, w = spec.asymptotes[roots], spec.offsets[roots], spec.weights[roots]
    v, om = m + s, spec.bigomegas[roots]
    f, slope = spec.direct_secular(roots)
    first = (p.omega_bar - om) * (p.omega_bar + om)
    terms = np.where((roots == 0) | (roots == n), np.abs(first - f) / (v * v),  # eta^2 A
                     p.eta_sq * (1.0 / np.abs(s) + 5.0 + 3.0 * np.log(2.0 * n + 1.0)) / (2.0 * v))
    tail = np.where(m < 2**17, m * 2.0**-35, m)
    scale = ((p.omega_bar + om) * (np.abs(p.omega_bar - om) + p.delta_omega * (np.abs(s) + tail))
             + v * v * terms + np.abs(f))
    residual = np.abs(f) / (spec.raised_residuals()[roots] + gamma * scale)
    weight_tol = (spec.weight_bounds()[roots] + u * (1.0 + slope * w)
                  + gamma * w * (slope - 1.0 + 2.0 * terms / p.delta_omega**2))
    weight = np.abs(w * slope - 1.0) / (weight_tol * (1.0 + gamma))
    return [CheckRow("direct_residual", float(residual.max()), 1.0),
            CheckRow("direct_weight", float(weight.max()), 1.0)]
