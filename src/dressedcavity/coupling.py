"""Orthogonal transformation between bare coordinates and normal modes.

Row index mu runs over the bare oscillators (0 = atom, k = 1..N the field
modes); column index r runs over the N+1 normal modes.  Each column is the
unit eigenvector of the coupled quadratic form belonging to Omega_r, fixed
by the normalization condition sum_mu (t_mu^r)^2 = 1 and the ratio

    t_k^r = eta omega_k / (omega_k^2 - Omega_r^2) * t_atom^r,

with the sign convention t_atom^r > 0.  The normalization fixes
(t_atom^r)^2 = 1 / (1 + eta^2 sum_k omega_k^2/(omega_k^2 - Omega_r^2)^2), the
spectrum's ``weights``.  The closed-form atom element

    t_atom^r = eta Omega_r / sqrt((Omega_r^2 - omega_bar^2)^2
               + (eta^2/2)(3 Omega_r^2 - omega_bar^2) + 4 g^2 Omega_r^2)

is the infinite-mode limit of that normalization; at finite truncation it
deviates from the normalized element by O(1/N).

A :class:`TransformMatrix` checks unit columns, t_atom^r > 0 and t t^T = 1
to 1e-6 on construction.  The column check sets each column's direct sum
against the spectrum's closed-form weight; the Gram check bounds each row's
deficit 1 - sum_r t[mu, r]^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NormalizationFailure, RegimeViolation, freeze, require
from .spectrum import DELTA_THRESHOLD, DressedAtomParams, ModeSpectrum

__all__ = [
    "TransformMatrix",
    "atom_element",
    "build_matrix",
    "atom_weights",
    "approx_small_cavity_elements",
]

# Dense (N+1)^2 storage: keep desk-scale by default.  The dense route holds
# t and, while it is checked, its Gram t t^T: two (N+1)^2 float arrays, 400 MB
# at the cap; an amplitude row adds the T x (N+1) complex phase table and
# amplitudes (T = 501 at the cap: 40 MB each).
MATRIX_MODE_CAP = 5000

_COLUMN_NORM_TOL = 1e-6
_ROW_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class TransformMatrix:
    """Dense orthogonal matrix t[mu, r], checked for closure on construction."""

    spectrum: ModeSpectrum
    t: np.ndarray

    def __post_init__(self):
        freeze(self, t=np.asarray(self.t, dtype=float))
        t = self.t
        n1 = self.spectrum.params.n_modes + 1
        if t.shape != (n1, n1):
            raise NormalizationFailure(f"matrix must be {n1}x{n1}, got {t.shape}")
        col_dev = np.abs(np.einsum("ij,ij->j", t, t) - 1.0)
        require(col_dev <= _COLUMN_NORM_TOL, NormalizationFailure,
                "column {i} norm deviates by {:.3e} (bad roots?)", col_dev)
        require(t[0, :] > 0.0, NormalizationFailure, "sign convention t_atom^r > 0 violated")
        gram = t @ t.T  # t t^T - 1, formed in place: one (N+1)^2 array beside t
        gram.flat[::n1 + 1] -= 1.0
        gram_dev = np.abs(gram, out=gram).max(axis=1)
        require(gram_dev <= _ROW_ORTHO_TOL, NormalizationFailure,
                "row {i} orthonormality off by {:.3e} (bad roots?)", gram_dev)

    @property
    def bigomegas(self) -> np.ndarray:
        return self.spectrum.bigomegas


def atom_element(omega_r: float, params: DressedAtomParams) -> float:
    """Closed-form atom component of the normal mode at frequency omega_r."""
    require(omega_r > 0, DomainError, "normal frequency must be positive, got {}", omega_r)
    w2, o2 = params.omega_bar**2, omega_r**2
    radicand = (o2 - w2) ** 2 + 0.5 * params.eta_sq * (3.0 * o2 - w2) + 4.0 * params.g**2 * o2
    require(radicand > 0.0, DomainError,
            "non-positive radicand {:.3e} at Omega={:.6g}; "
            "inputs are inconsistent with a genuine normal mode", radicand, omega_r)
    return params.eta * omega_r / np.sqrt(radicand)


def build_matrix(spectrum: ModeSpectrum) -> TransformMatrix:
    """Assemble the full (N+1) x (N+1) transformation.

    Column r is t_atom^r = sqrt(w_r), w_r the spectrum's ``weights``, over
    the field elements t_k^r = (eta/dw) k / gap * t_atom^r from the
    eigenvector ratio, gap = (omega_k^2 - Omega_r^2) / dw^2.  Each gap is
    formed from the root's offsets as ((k - m_r) - s_r)(k + m_r + s_r), so
    it keeps its digits where the root hugs omega_k, and is nonzero: the
    spectrum admits 0 < |s_r| < 1 below the top root and s_N > 0 above
    omega_N.  The column norms, a direct sum, then check the weights'
    closed form.
    """
    params = spectrum.params
    n = params.n_modes
    if n > MATRIX_MODE_CAP:
        raise ValueError(
            f"n_modes={n} exceeds the dense-matrix cap {MATRIX_MODE_CAP}; "
            "use atom_weights() for large truncations"
        )
    k = np.arange(1.0, n + 1)[:, None]
    m, s = spectrum.asymptotes, spectrum.offsets
    t = np.empty((n + 1, n + 1))
    t[0] = np.sqrt(spectrum.weights)
    gap = np.subtract(k, m, out=t[1:])  # (omega_k^2 - Omega_r^2) / dw^2, in place
    gap -= s
    gap *= k + (m + s)
    np.divide((params.eta / params.delta_omega) * k, gap, out=gap)
    gap *= t[0]
    return TransformMatrix(spectrum=spectrum, t=t)


def atom_weights(spectrum: ModeSpectrum) -> np.ndarray:
    """(t_atom^r)^2 for every normal mode, without dense storage.

    A writable copy of ``spectrum.weights``, which the spectrum derives once
    from the roots' offsets as 1 / (1 + eta^2 (S + lam S2)), with
    S + lam S2 = sum_k omega_k^2/(omega_k^2 - lam)^2: O(1) per root even
    for very large truncations.
    """
    return spectrum.weights.copy()


def approx_small_cavity_elements(params: DressedAtomParams, k_max: int) -> np.ndarray:
    """First-order squared elements of the atom-dominated normal mode.

    Returns ``[ (t_0^0)^2, (t_1^0)^2, ..., (t_k_max^0)^2 ]`` with
    (t_0^0)^2 = (1 + 2 pi delta / 3)^-1 and
    (t_k^0)^2 = (4/k^2)(delta/pi) (t_0^0)^2.
    """
    require(params.delta < DELTA_THRESHOLD, RegimeViolation,
            "small-cavity elements need delta < {}, got delta = {:.4g}",
            DELTA_THRESHOLD, params.delta)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    atom_sq = 1.0 / (1.0 + 2.0 * np.pi * params.delta / 3.0)
    k = np.arange(1, k_max + 1)
    return np.concatenate(([atom_sq], (4.0 / k**2) * (params.delta / np.pi) * atom_sq))
