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

A :class:`TransformMatrix` checks unit columns and orthogonality to 1e-6
from its spectrum in O(N) time and memory; it holds no entry of t, and forms
any row again on demand, in O(N), or the whole matrix when asked.  Column r
has the norm w_r |F'(lam_r)|, so the weights' rounding bounds it
(:meth:`ModeSpectrum.weight_bounds`).  Orthogonality takes no product t t^T:
for columns r != s, partial fractions of the eigenvector ratio give

    (t^T t)_rs = -t_atom^r t_atom^s (F(lam_r) - F(lam_s)) / (lam_r - lam_s),

lam = Omega^2 and F the secular function, whose values at the roots the
spectrum bounds (the Loewner-type identity of Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 16 (1995) 172-191), a Cauchy kernel: Montgomery and
Vaughan's weighted Hilbert inequality bounds its form at any weights, and
its 2-norm, by sums over nearest gaps in O(N), the few heaviest roots' pairs
taken term by term.  The record keeps the 2-norm bound and the worst column
bound; each row's unitarity margin takes the form at that row's weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NormalizationFailure, freeze, require
from .spectrum import DressedAtomParams, ModeSpectrum

__all__ = [
    "TransformMatrix",
    "row_index",
    "atom_element",
    "build_matrix",
    "atom_weights",
]

# Dense (N+1)^2 storage: keep desk-scale by default.  Only the whole matrix t is
# capped, 200 MB at the cap; amplitude_row adds the T x (N+1) complex phase table
# and amplitudes (T = 501: 40 MB each).  A record and its rows take O(N) memory.
MATRIX_MODE_CAP = 5000

_COLUMN_NORM_TOL = 1e-6
_ORTHO_TOL = 1e-6

# Elements in each block's temporaries (512 kB of floats): the dense build holds
# one (N+1)^2 array and a few blocks, the checks O(N) arrays.
_BLOCK_ELEMENTS = 2**16

# Roots whose pairs the orthogonality bound sums term by term (:func:`_off_diagonal`).
_HEAVY = 8

_EPS = np.finfo(float).eps
# Relative rounding of a stored element t_k^r: 8 roundings of eps/2 (eta/dw,
# times k, three in the gap, the product, the division, the atom factor).
_ENTRY_ROUNDING = 4.0 * _EPS


@dataclass(frozen=True)
class TransformMatrix:
    """The orthogonal matrix t[mu, r] of ``spectrum``, checked, holding no entry.

    ``column_deviation`` is the worst bound on |sum_mu (t_mu^r)^2 - 1| over the
    entries :func:`_field_rows` forms: on the stored atom row a, sqrt(w)
    rounded, the formulas' column has the norm a^2 |F'| within b + eps (1 +
    b) of 1 (b of ``weight_bounds``) and field part a^2 (|F'| - 1) <= (1 +
    eps)(1 - w + b), and the stored squares lie within 2 gamma + gamma^2 of
    theirs: b + eps + 2 gamma (1 - w + b), raised by 8 eps for the second
    order and this arithmetic.  ``orthogonality_bound`` adds
    :func:`_off_diagonal`'s B on ||t^T t - diag||_2 and 2 (2 gamma +
    gamma^2)(1 + B) for the stored entries (gamma = ``_ENTRY_ROUNDING``,
    Cauchy-Schwarz): it bounds ||t^T t - 1||_2 for the formulas' t and each
    entry of the stored t's Gram minus 1, not that Gram's 2-norm, which
    ``test_global_bound_covers_the_long_double_gram`` checks.  Both must be
    at most 1e-6.
    """

    spectrum: ModeSpectrum
    column_deviation: float = field(init=False)
    orthogonality_bound: float = field(init=False)
    _deviations: np.ndarray = field(init=False, repr=False)
    _phi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        col_dev = self.spectrum.weight_bounds()  # b, then b + eps + 2 gamma (1 - w + b)
        col_dev += _EPS + 2.0 * _ENTRY_ROUNDING * (1.0 - self.spectrum.weights + col_dev)
        col_dev *= 1.0 + 8.0 * _EPS
        require(col_dev <= _COLUMN_NORM_TOL, NormalizationFailure,
                "column {i} norm deviates by {:.3e} (bad roots?)", col_dev)
        phi = self.spectrum.raised_residuals() / self.spectrum.params.delta_omega**2
        bound = float(col_dev.max()) + _off_diagonal(self.spectrum, phi)
        bound += 2.0 * (2.0 * _ENTRY_ROUNDING + _ENTRY_ROUNDING**2) * (1.0 + bound)
        require(bound <= _ORTHO_TOL, NormalizationFailure,
                "orthogonality bound {:.3e} exceeds {} (bad roots?)", bound, _ORTHO_TOL)
        freeze(self, column_deviation=float(col_dev.max()), orthogonality_bound=bound,
               _deviations=col_dev, _phi=phi)

    @cached_property
    def t(self) -> np.ndarray:
        """The whole matrix, formed into itself in row blocks on first use, kept read-only."""
        n = self.spectrum.params.n_modes
        if n > MATRIX_MODE_CAP:
            raise ValueError(f"n_modes={n} exceeds the dense-matrix cap {MATRIX_MODE_CAP}; "
                             "use spectrum.weights or row() for large truncations")
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

        The amplitudes t D w, w = t_mu, D = diag(exp(-i Omega_r t)), have the
        squared norm z^* G z, z = D w, G = t^T t.  For the formulas' t, whose
        entries the stored ones are within gamma = ``_ENTRY_ROUNDING`` of, it
        lies within q = |P - 1| + sum w_r^2 (cd_r + beta (1 + cd_r)) + B of 1,
        P = ||w||^2, beta = (1 - gamma)^-2 - 1, B :func:`_off_diagonal` at w.
        The stored entries move t z by e <= gamma ||w||_1 max ||t_r|| <= gamma
        (1 - gamma)^-1 ||w||_1 (1 + max cd)^1/2, the norm by 2 (1 + q)^1/2 e +
        e^2.  P, the rounded squares' correctly rounded sum, is within eps P;
        the sums of N + 1 positive terms take (N + 8) eps.
        """
        w = self.row(mu)
        sq, cd = w * w, self._deviations
        norm, beta = math.fsum(sq), (1.0 - _ENTRY_ROUNDING) ** -2 - 1.0
        q = (abs(norm - 1.0) + _EPS * norm + float(sq @ (cd + beta * (1.0 + cd)))
             + _off_diagonal(self.spectrum, self._phi, w))
        e = (_ENTRY_ROUNDING / (1.0 - _ENTRY_ROUNDING) * float(np.abs(w).sum())
             * math.sqrt(1.0 + self.column_deviation))
        return (q + 2.0 * math.sqrt(1.0 + q) * e + e * e) * (1.0 + (w.size + 7.0) * _EPS)


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
    """Field entries t_k^r, k >= 1, of every column (k an array of row numbers
    as floats, broadcast against the roots along its last axis) into ``out``:
    t_k^r = (eta/dw) k / gap * t_atom^r from the eigenvector ratio,
    t_atom^r = sqrt(w_r) the atom row, with gap = (omega_k^2 - Omega_r^2) / dw^2
    formed from the root's offsets as ((k - m_r) - s_r)(k + m_r + s_r), so it
    keeps its digits where the root hugs omega_k, and is nonzero: the spectrum
    admits 0 < |s_r| <= 1/2 below the top root and s_N > 0 above omega_N.  The
    same elementwise steps in any layout, so the same bits for every (k, r)."""
    p, m, s = spectrum.params, spectrum.asymptotes, spectrum.offsets
    gap = np.subtract(k, m, out=out)
    gap -= s
    gap *= k + (m + s)
    np.divide((p.eta / p.delta_omega) * k, gap, out=gap)
    gap *= np.sqrt(spectrum.weights)
    return gap


def _off_diagonal(spectrum: ModeSpectrum, phi: np.ndarray, x=None) -> float:
    """A bound on |z^* G_off z| over complex z with |z| = |x|, G_off the
    off-diagonal part of G = t^T t; with x None, on ||G_off||_2.  O(N).

    G_rs = -a_r a_s (F_r - F_s) / (lam_r - lam_s), a = sqrt(w), |F_r| <= phi_r
    dw^2 (``phi``, :meth:`ModeSpectrum.raised_residuals` over dw^2): two Cauchy
    forms in v = a z.  By Montgomery and Vaughan (J. London Math. Soc. (2) 8
    (1974) 73-82) |sum_{r != s} conj(v_r) v_s / (lam_r - lam_s)| <= (3 pi / 2)
    sum |v_r|^2 / delta_r, delta_r the nearest gap; the kernel is i times
    Hermitian, so with y = |x| a the form is at most 3 pi [sum (y phi)^2 /
    delta]^1/2 [sum y^2 / delta]^1/2, and the 2-norm (y = a) 3 pi max(y phi /
    delta^1/2) max(y / delta^1/2).  The pairs that touch the ``_HEAVY`` roots of
    largest y^2 / delta go term by term instead, y_r y_s (phi_r + phi_s) /
    |lam_r - lam_s| (for the 2-norm, their largest absolute row sum), those
    weights zeroed.

    A gap in units of dw^2 is ((m_j - m_i) + (s_j - s_i))(u_j + u_i), u = m +
    s: roots that share an asymptote (only neighbours do) keep their digits,
    any other two lie 1/2 or more apart with |s_j - s_i| <= 2 |u_j - u_i|, so a
    float gap is within 3u + 2u + u <= 4 eps (u = eps/2).  With phi within 2
    eps, a exact (the stored atom row), y within u and four more roundings, a
    term is within 12 eps; a sum of N + 1 positive terms adds N u, and 2
    ``_HEAVY`` + 4 roundings combine the sums: (N + 32) eps covers it.
    """
    m, s, u = spectrum.asymptotes, spectrum.offsets, spectrum.asymptotes + spectrum.offsets
    y = np.sqrt(spectrum.weights) * (1.0 if x is None else np.abs(x))

    def gap(i, j):  # |lam_j - lam_i| / dw^2
        return np.abs(((m[j] - m[i]) + (s[j] - s[i])) * (u[j] + u[i]))

    near = np.append(gap(slice(None, -1), slice(1, None)), np.inf)  # lam_r+1 - lam_r
    near = np.minimum(near, np.roll(near, 1))
    heavy = np.argpartition(y * y / near, -min(_HEAVY, u.size))[-_HEAVY:]
    top_row, cols, pairs = 0.0, np.zeros(u.size), 0.0
    for h in heavy:
        d = gap(h, slice(None))
        d[h] = np.inf
        term = (phi + phi[h]) * (y[h] * y) / d
        top_row = max(top_row, term.sum())
        cols += term
        term[heavy] *= 0.5  # a pair inside the heavy set is met from both ends
        pairs += 2.0 * term.sum()
    y[heavy] = cols[heavy] = 0.0
    b = y * y / near  # y^2 / delta
    c = b * phi * phi  # (y phi)^2 / delta
    if x is None:
        bound = max(top_row, cols.max()) + 3.0 * np.pi * np.sqrt(c.max() * b.max())
    else:
        bound = pairs + 3.0 * np.pi * np.sqrt(c.sum() * b.sum())
    return float(bound) * (1.0 + (u.size + 31.0) * _EPS)


def atom_element(omega_r: float, params: DressedAtomParams) -> float:
    """Closed-form atom component of the normal mode at frequency omega_r."""
    require(0 < omega_r < np.inf, DomainError,
            "normal frequency must be positive and finite, got {}", omega_r)
    omega_r = float(omega_r)
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
