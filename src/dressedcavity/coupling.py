"""Orthogonal transformation between bare coordinates and normal modes.

Row index mu runs over the bare oscillators (0 = atom, k = 1..N the field
modes); column index r runs over the N+1 normal modes.  Each column is the
unit eigenvector of the coupled quadratic form belonging to Omega_r, fixed
by the normalization condition sum_mu (t_mu^r)^2 = 1 and the ratio

    t_k^r = eta omega_k / (omega_k^2 - Omega_r^2) * t_atom^r,

with the sign convention t_atom^r > 0: t_atom^r is the root of the
normalization's (t_atom^r)^2 = 1 / (1 + eta^2 sum_k omega_k^2/(omega_k^2 -
Omega_r^2)^2), the spectrum's ``weights``.  The closed-form atom element

    t_atom^r = eta Omega_r / sqrt((Omega_r^2 - omega_bar^2)^2
               + (eta^2/2)(3 Omega_r^2 - omega_bar^2) + 4 g^2 Omega_r^2)

is the infinite-mode limit of that normalization; at finite truncation it
deviates from the normalized element by O(1/N).

A :class:`TransformMatrix` forms every entry of t from its spectrum once, to
check unit columns, from the squares of those entries, and orthogonality to
1e-6; it holds none of them, and forms any row again on demand, in O(N), or
the whole matrix when asked.  Orthogonality takes no product t t^T: for
columns r != s, partial fractions of the eigenvector ratio give

    (t^T t)_rs = -t_atom^r t_atom^s (F(lam_r) - F(lam_s)) / (lam_r - lam_s),

lam = Omega^2 and F the secular function, whose values at the roots the
spectrum bounds (the Loewner-type identity of Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 16 (1995) 172-191).  Row sums of its magnitudes bound
||t^T t - 1||_2, and with it every entry of t t^T - 1, in O(N^2) time and
O(N) memory; the record keeps that bound and the worst column deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NormalizationFailure, RegimeViolation, freeze, require
from .spectrum import DELTA_THRESHOLD, DressedAtomParams, ModeSpectrum

__all__ = [
    "TransformMatrix",
    "row_index",
    "atom_element",
    "build_matrix",
    "atom_weights",
    "approx_small_cavity_elements",
]

# Dense (N+1)^2 storage: keep desk-scale by default.  Only the whole matrix t is
# capped, 200 MB at the cap; amplitude_row adds the T x (N+1) complex phase table
# and amplitudes (T = 501: 40 MB each).  A record and its rows take O(N) memory.
MATRIX_MODE_CAP = 5000

_COLUMN_NORM_TOL = 1e-6
_ORTHO_TOL = 1e-6

# Elements in each row block's temporaries (512 kB of floats), so the dense
# build and the orthogonality bound hold one (N+1)^2 array and a few blocks.
_BLOCK_ELEMENTS = 2**16

_EPS = np.finfo(float).eps
# Relative rounding of a stored element t_k^r: 8 roundings of eps/2 (eta/dw,
# times k, three in the gap, the product, the division, the atom factor).
_ENTRY_ROUNDING = 4.0 * _EPS


@dataclass(frozen=True)
class TransformMatrix:
    """The orthogonal matrix t[mu, r] of ``spectrum``, checked, holding no entry.

    :func:`_column_norms` forms every entry once: ``column_deviation`` is the
    worst |sum_mu (t_mu^r)^2 - 1| over them, and ``orthogonality_bound`` bounds
    ||t^T t - 1||_2 and max |t t^T - 1| (:func:`_orthogonality_bound`).  Both
    must be at most 1e-6.  :meth:`row` and :attr:`t` form the same entries
    again through :func:`_field_rows`, so they return the bits checked.
    """

    spectrum: ModeSpectrum
    column_deviation: float = field(init=False)
    orthogonality_bound: float = field(init=False)

    def __post_init__(self):
        col_dev = np.abs(_column_norms(self.spectrum) - 1.0)
        require(col_dev <= _COLUMN_NORM_TOL, NormalizationFailure,
                "column {i} norm deviates by {:.3e} (bad roots?)", col_dev)
        bound = _orthogonality_bound(self.spectrum, col_dev)
        require(bound <= _ORTHO_TOL, NormalizationFailure,
                "column {i} orthogonality bound {:.3e} exceeds {} (bad roots?)", bound, _ORTHO_TOL)
        freeze(self, column_deviation=float(col_dev.max()), orthogonality_bound=float(bound.max()))

    @property
    def bigomegas(self) -> np.ndarray:
        return self.spectrum.bigomegas

    @cached_property
    def t(self) -> np.ndarray:
        """The whole matrix, formed into itself in row blocks on first use, kept read-only."""
        n = self.spectrum.params.n_modes
        if n > MATRIX_MODE_CAP:
            raise ValueError(f"n_modes={n} exceeds the dense-matrix cap {MATRIX_MODE_CAP}; "
                             "use atom_weights() or row() for large truncations")
        t = np.empty((n + 1, n + 1))
        t[0] = np.sqrt(self.spectrum.weights)
        step = max(1, _BLOCK_ELEMENTS // (n + 1))
        for i in range(1, n + 1, step):
            k = np.arange(i, min(i + step, n + 1), dtype=float)[:, None]
            _field_rows(self.spectrum, k, out=t[i:i + k.size])
        t.setflags(write=False)
        return t

    def row(self, mu) -> np.ndarray:
        """Row mu of t by label (:func:`row_index`), formed in O(N)."""
        k = row_index(mu, self.spectrum.params.n_modes)
        if k == 0:
            return np.sqrt(self.spectrum.weights)
        return _field_rows(self.spectrum, np.array([[float(k)]]))[0]

    def unitarity_margin(self, mu) -> float:
        """A bound on |sum_nu |f_mu_nu(t)|^2 - 1| at every t, from row mu alone.

        The amplitudes of row mu are t D t_mu, D = diag(exp(-i Omega_r t))
        unitary, so their squared norm misses 1 by at most |(t t^T)_mu_mu - 1|
        + ||t^T t - 1||_2 (t t^T)_mu_mu.
        """
        r = self.row(mu)
        norm = float(r @ r)
        return abs(norm - 1.0) + self.orthogonality_bound * norm


def row_index(label, n_modes: int) -> int:
    """Row of the transform a label names: 0 for "atom" (or 0), k for field mode k,
    given as an integer or as its decimal string (the command line's form)."""
    if label == "atom":
        return 0
    label = int(label) if isinstance(label, str) and label.isdecimal() else label
    if (isinstance(label, (int, np.integer)) and not isinstance(label, bool)
            and 0 <= label <= n_modes):
        return int(label)
    raise ValueError(f"row label must be 'atom' or a mode index 1..{n_modes}, got {label!r}")


def _field_rows(spectrum: ModeSpectrum, k: np.ndarray, out=None) -> np.ndarray:
    """Field rows k >= 1 of t (k a column of row numbers as floats) into ``out``:
    t_k^r = (eta/dw) k / gap * t_atom^r from the eigenvector ratio, t_atom^r =
    sqrt(w_r) the atom row, with gap = (omega_k^2 - Omega_r^2) / dw^2 formed
    from the root's offsets as ((k - m_r) - s_r)(k + m_r + s_r), so it keeps
    its digits where the root hugs omega_k, and is nonzero: the spectrum
    admits 0 < |s_r| <= 1/2 below the top root and s_N > 0 above omega_N."""
    p = spectrum.params
    m, s = spectrum.asymptotes, spectrum.offsets
    gap = np.subtract(k, m, out=out)
    gap -= s
    gap *= k + (m + s)
    np.divide((p.eta / p.delta_omega) * k, gap, out=gap)
    gap *= np.sqrt(spectrum.weights)
    return gap


def _column_norms(spectrum: ModeSpectrum) -> np.ndarray:
    """t's column norms sum_mu (t_mu^r)^2: rows 1..N formed a block at a time
    (:func:`_field_rows`) into one buffer, each block's squares added to the
    running norms in row order, numpy's order for a stored t's columns."""
    atom = np.sqrt(spectrum.weights)
    step = max(1, _BLOCK_ELEMENTS // atom.size)
    work = np.empty((min(step, atom.size - 1) + 1, atom.size))  # the running norms, then a block
    work[0] = atom * atom
    for i in range(1, atom.size, step):
        k = np.arange(i, min(i + step, atom.size), dtype=float)[:, None]
        block = _field_rows(spectrum, k, out=work[1:k.size + 1])
        np.square(block, out=block)
        work[0] = np.sum(work[:k.size + 1], axis=0)
    return work[0]


def _orthogonality_bound(spectrum: ModeSpectrum, col_dev: np.ndarray) -> np.ndarray:
    """For each column r of t, a bound on row r's absolute sum in t^T t - 1,
    raised for the rounding of t's entries.  Its maximum bounds ||t^T t - 1||_2
    and so every entry of t t^T - 1, whose eigenvalues are the same.

    Off the diagonal |(t^T t)_rs| = a_r a_s |F_r - F_s| / |lam_r - lam_s|, a =
    t_atom = sqrt(w), so row r sums to at most |col_r - 1| + a_r sum_{s != r}
    a_s (|F_r| + |F_s|) / |lam_r - lam_s|, each |F| raised by its rounding
    bound (:meth:`ModeSpectrum.raised_residuals`).  With each offset carried
    from its nearer asymptote (|s| <= 1/2 but for the top root), two roots
    share one only as neighbours r, r+1, and their gap is formed from the
    offsets, ((s_r+1 - s_r)(u_r+1 + u_r)), so it keeps its digits.  Any other
    two, u_r < u_j, lie more than 1/2 apart, and u_r < N, so lam_j - lam_r =
    (u_j^2 - u_r^2) dw^2 in floats is within 1.5 eps (u_j + u_r) / (u_j - u_r) + eps/2
    < (6N + 2) eps of itself, relative.  Each pair j > r is formed once: a
    block of B rows' 1/(lam_j - lam_r) meets (a, a |F|) in one product for the
    rows and one for the columns, with 1/inf = 0 on and below the diagonal,
    which is never divided.  With the rest of the bound's arithmetic, on
    positive terms only, (7N + 16) eps relative covers it.  A stored entry is
    within gamma = 4 eps of the element these formulas hold for, which moves
    the column norms and each entry of t t^T by at most 2 gamma + gamma^2
    (Cauchy-Schwarz).
    """
    p = spectrum.params
    n1 = p.n_modes + 1
    m, s = spectrum.asymptotes.astype(float), spectrum.offsets
    u = m + s
    lam = u * u  # lam / dw^2
    pairs = np.flatnonzero(m[1:] == m[:-1])  # roots r, r+1 on one asymptote
    close = np.zeros(n1)
    close[pairs] = (s[pairs + 1] - s[pairs]) * (u[pairs + 1] + u[pairs])
    phi = spectrum.raised_residuals() / p.delta_omega**2  # in the gaps' units
    a = np.sqrt(spectrum.weights)
    x = np.stack([a, a * phi])
    sums = np.zeros(n1)
    step = max(1, _BLOCK_ELEMENTS // n1)
    buffer = np.empty(min(step, n1) * n1)  # one block, reused
    for i in range(0, n1, step):
        b = min(step, n1 - i)
        gap = np.subtract(lam[i:], lam[i:i + b, None], out=buffer[:b * (n1 - i)].reshape(b, -1))
        r = pairs[(i <= pairs) & (pairs < i + b)]
        gap[r - i, r - i + 1] = close[r]
        gap[:, :b][np.tri(b, dtype=bool)] = np.inf  # j <= r
        inv = np.reciprocal(gap, out=gap)
        by_row = inv @ x[:, i:].T
        by_col = x[:, i:i + b] @ inv
        sums[i:i + b] += phi[i:i + b] * by_row[:, 0] + by_row[:, 1]
        sums[i:] += phi[i:] * by_col[0] + by_col[1]
    bound = (col_dev + a * sums) * (1.0 + (7.0 * n1 + 9.0) * _EPS)
    entry = 2.0 * _ENTRY_ROUNDING + _ENTRY_ROUNDING**2
    return bound + 2.0 * entry * (1.0 + bound)


def atom_element(omega_r: float, params: DressedAtomParams) -> float:
    """Closed-form atom component of the normal mode at frequency omega_r."""
    require(0 < omega_r < np.inf, DomainError,
            "normal frequency must be positive and finite, got {}", omega_r)
    w2, o2 = params.omega_bar**2, omega_r**2
    radicand = (o2 - w2) ** 2 + 0.5 * params.eta_sq * (3.0 * o2 - w2) + 4.0 * params.g**2 * o2
    require(radicand > 0.0, DomainError,
            "non-positive radicand {:.3e} at Omega={:.6g}; "
            "inputs are inconsistent with a genuine normal mode", radicand, omega_r)
    return params.eta * omega_r / np.sqrt(radicand)


def build_matrix(spectrum: ModeSpectrum) -> TransformMatrix:
    """The checked transform of ``spectrum``, for any N in O(N) memory; its
    rows on demand, its dense matrix when asked (:class:`TransformMatrix`)."""
    return TransformMatrix(spectrum)


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
    if not (isinstance(k_max, (int, np.integer)) and not isinstance(k_max, bool) and k_max >= 1):
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    atom_sq = 1.0 / (1.0 + 2.0 * np.pi * params.delta / 3.0)
    k = np.arange(1, k_max + 1)
    return np.concatenate(([atom_sq], (4.0 / k**2) * (params.delta / np.pi) * atom_sq))
