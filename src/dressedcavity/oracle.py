"""Brute-force verifier: diagonalize the coupled quadratic form directly.

The analytic pipeline (bracketed secular roots, ratio-built eigencolumns,
phase-summed amplitudes) is checked against a plain dense symmetric
eigensolve of the (N+1) x (N+1) matrix

    B[0,0] = omega_bar^2 + N eta^2      (bare atom frequency, counterterm in)
    B[k,k] = omega_k^2
    B[0,k] = B[k,0] = -eta omega_k,

whose characteristic equation is exactly the truncated secular equation.
The eigensolver is an in-repo cyclic Jacobi sweep so the comparison never
shares code with the pipeline it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import row_index
from .errors import ConvergenceFailure, InvariantViolation, freeze, require
from .spectrum import DressedAtomParams, field_frequencies

__all__ = [
    "QuadraticForm",
    "OracleDecomposition",
    "build_form",
    "jacobi_eigh",
    "diagonalize",
    "oracle_amplitude",
    "run_cross_checks",
    "CheckRow",
]

_RESIDUAL_TOL = 1e-10  # on max |B v - v lam|, relative to max |lam|

_CHECK_TIMES = np.linspace(0.0, 20.0, 9)  # survival amplitudes compared here


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


def jacobi_eigh(matrix: np.ndarray, *, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Raises
    :class:`ConvergenceFailure` if the off-diagonal mass has not annihilated
    within ``max_sweeps`` full sweeps.
    """
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return np.diag(a).copy(), v
    for sweep in range(1, max_sweeps + 1):
        strict = np.abs(a.copy())
        np.fill_diagonal(strict, 0.0)
        off = float(np.sum(strict))
        if off == 0.0:
            break
        # skip tiny rotations during early sweeps, then clean everything
        thresh = 0.2 * off / (n * n) if sweep < 4 else 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                guard = 100.0 * abs(apq)
                if sweep > 4 and abs(a[p, p]) + guard == abs(a[p, p]) \
                        and abs(a[q, q]) + guard == abs(a[q, q]):
                    a[p, q] = a[q, p] = 0.0
                    continue
                if abs(apq) <= thresh:
                    continue
                h = a[q, q] - a[p, p]
                if abs(h) + guard == abs(h):
                    t = apq / h
                else:
                    theta = 0.5 * h / apq
                    t = 1.0 / (abs(theta) + np.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise ConvergenceFailure(
            f"Jacobi sweeps did not converge within {max_sweeps} sweeps"
        )
    lam = np.diag(a).copy()
    order = np.argsort(lam)
    return lam[order], v[:, order]


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
    for r in range(v.shape[1]):
        pivot = v[0, r]
        if pivot == 0.0:
            pivot = v[np.argmax(np.abs(v[:, r])), r]
        if pivot < 0.0:
            v[:, r] = -v[:, r]
    scale = np.max(np.abs(lam))
    resid = np.max(np.abs(form.matrix @ v - v * lam), axis=0)
    require(resid <= _RESIDUAL_TOL * scale, ConvergenceFailure,
            "eigenpair {i} residual {:.3e} exceeds {:.1e} * |B|", resid, _RESIDUAL_TOL)
    return OracleDecomposition(form=form, eigenvalues=lam, vectors=v)


def oracle_amplitude(decomp: OracleDecomposition, mu, nu, t: float) -> complex:
    """sum_r v_mu^r v_nu^r exp(-i Omega_r t) from the oracle eigenpairs."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    n = decomp.form.params.n_modes
    i, j = row_index(mu, n), row_index(nu, n)
    phases = np.exp(-1j * decomp.omegas * t)
    return complex(np.sum(decomp.vectors[i, :] * decomp.vectors[j, :] * phases))


@dataclass(frozen=True)
class CheckRow:
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
    """Compare the analytic pipeline against the diagonalization oracle.

    Checks spectra (relative), transformation elements (absolute, both sign
    conventions aligned), survival amplitudes at nine times in [0, 20]
    (absolute), the eigenvector ratio t_k^r / t_atom^r of the oracle's
    vectors against the pipeline's columns, which form it from the roots'
    offsets (relative to 1 + |ratio|), and the quadratic-form reconstruction.
    """
    from .coupling import build_matrix
    from .dynamics import amplitude_trace
    from .spectrum import solve_eigenfrequencies

    spec = solve_eigenfrequencies(params)
    tm = build_matrix(spec)
    decomp = diagonalize(build_form(params))

    rows = []
    rel = np.max(np.abs(spec.bigomegas - decomp.omegas) / decomp.omegas)
    rows.append(CheckRow("spectrum_relative", float(rel), 1e-8))

    elem = np.max(np.abs(np.abs(tm.t) - np.abs(decomp.vectors)))
    rows.append(CheckRow("elements_absolute", float(elem), 1e-8))

    survival = amplitude_trace(tm, "atom", "atom", _CHECK_TIMES).values
    amp = max(abs(f - oracle_amplitude(decomp, "atom", "atom", t))
              for f, t in zip(survival, _CHECK_TIMES))
    rows.append(CheckRow("survival_amplitude_absolute", float(amp), 1e-8))

    expected = tm.t[1:] / tm.t[0]
    ratio_err = np.max(np.abs(decomp.vectors[1:] / decomp.vectors[0] - expected)
                       / (1.0 + np.abs(expected)))
    rows.append(CheckRow("eigenvector_ratio", float(ratio_err), 1e-8))

    b = decomp.form.matrix
    recon = (tm.t * spec.bigomegas**2) @ tm.t.T
    recon_err = np.max(np.abs(recon - b)) / spec.omegas[-1] ** 2
    rows.append(CheckRow("reconstruction", float(recon_err), 1e-6))

    recon_o = (decomp.vectors * decomp.eigenvalues) @ decomp.vectors.T
    scale = np.max(np.abs(decomp.eigenvalues))
    rows.append(CheckRow("oracle_self_reconstruction",
                         float(np.max(np.abs(recon_o - b)) / scale), 1e-8))
    return rows
