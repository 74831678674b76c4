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
from its spectrum in O(N log N) time and O(N) memory; it holds no entry of
t, and forms any row again on demand, in O(N), or the whole matrix when
asked.  The column check forms only near fields: every row of the outer
pair {0, N}, and of each inner column the atom row and the 2K + 1 field rows
nearest its pole, summed to within eps; the rows beyond are an
Euler-Maclaurin sum (DLMF 2.10.1) of k^2/(k^2 - u^2)^2 with a bound on its
remainder and rounding, so each column's recorded deviation is at least that
of the stored entries.  Orthogonality takes no product t t^T: for columns
r != s, partial fractions of the eigenvector ratio give

    (t^T t)_rs = -t_atom^r t_atom^s (F(lam_r) - F(lam_s)) / (lam_r - lam_s),

lam = Omega^2 and F the secular function, whose values at the roots the
spectrum bounds (the Loewner-type identity of Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 16 (1995) 172-191).  Row sums of its magnitudes bound
||t^T t - 1||_2, and with it every entry of t t^T - 1: term by term over
the 2K nearest roots and the outer pair, and beyond by blocks d <= |s - r| <
1.5 d, each at most its prefix sums over its nearest gap.  The record keeps
that bound and the worst column bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# one (N+1)^2 array and a few blocks, the checks O(N) arrays and a few blocks.
_BLOCK_ELEMENTS = 2**16

# Near fields: each inner root's 2K + 1 field rows nearest its pole and 2K inner
# roots nearest it are summed term by term; the far rows and roots are bounded.
_NEAR = 31
# Far roots of the orthogonality bound come in blocks d <= |s - r| < q d.
_BLOCK_RATIO = 1.5
# B_2 .. B_10: four Euler-Maclaurin corrections and the remainder's coefficient,
# and the remainder over one far segment, 2 |B_10| h^11 + |B_10| h^10 / (5u) with
# h = 1/(K + 1/2) and u > 1 (:func:`_euler_maclaurin`): 2.1e-17.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)
_EM_REMAINDER = (2.0 / (_NEAR + 0.5) + 0.2) * _BERNOULLI[-1] / (_NEAR + 0.5) ** 10

_EPS = np.finfo(float).eps
# Relative rounding of a stored element t_k^r: 8 roundings of eps/2 (eta/dw,
# times k, three in the gap, the product, the division, the atom factor).
_ENTRY_ROUNDING = 4.0 * _EPS


@dataclass(frozen=True)
class TransformMatrix:
    """The orthogonal matrix t[mu, r] of ``spectrum``, checked, holding no entry.

    ``column_deviation`` is the worst of the bounds :func:`_column_deviation`
    puts on |sum_mu (t_mu^r)^2 - 1| over the entries :func:`_field_rows` forms,
    from their near fields and a bounded far field, and ``orthogonality_bound``
    bounds ||t^T t - 1||_2 and max |t t^T - 1| (:func:`_orthogonality_bound`).
    Both must be at most 1e-6.  :meth:`row` and :attr:`t` form their entries
    through :func:`_field_rows`, so they return the bits the near fields
    checked and the far field bounds.
    """

    spectrum: ModeSpectrum
    column_deviation: float = field(init=False)
    orthogonality_bound: float = field(init=False)

    def __post_init__(self):
        col_dev = _column_deviation(self.spectrum)
        require(col_dev <= _COLUMN_NORM_TOL, NormalizationFailure,
                "column {i} norm deviates by {:.3e} (bad roots?)", col_dev)
        bound = _orthogonality_bound(self.spectrum, col_dev)
        require(bound <= _ORTHO_TOL, NormalizationFailure,
                "column {i} orthogonality bound {:.3e} exceeds {} (bad roots?)", bound, _ORTHO_TOL)
        freeze(self, column_deviation=float(col_dev.max()), orthogonality_bound=float(bound.max()))

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


def _field_rows(spectrum: ModeSpectrum, k: np.ndarray, roots=slice(None), out=None) -> np.ndarray:
    """Field entries t_k^r, k >= 1, of the columns ``roots`` (k an array of row
    numbers as floats, broadcast against the roots along its last axis) into
    ``out``: t_k^r = (eta/dw) k / gap * t_atom^r from the eigenvector ratio,
    t_atom^r = sqrt(w_r) the atom row, with gap = (omega_k^2 - Omega_r^2) / dw^2
    formed from the root's offsets as ((k - m_r) - s_r)(k + m_r + s_r), so it
    keeps its digits where the root hugs omega_k, and is nonzero: the spectrum
    admits 0 < |s_r| <= 1/2 below the top root and s_N > 0 above omega_N.  The
    same elementwise steps in any layout, so the same bits for every (k, r)."""
    p = spectrum.params
    m, s = spectrum.asymptotes[roots], spectrum.offsets[roots]
    gap = np.subtract(k, m, out=out)
    gap -= s
    gap *= k + (m + s)
    np.divide((p.eta / p.delta_omega) * k, gap, out=gap)
    gap *= np.sqrt(spectrum.weights[roots])
    return gap


def _near_norms(spectrum: ModeSpectrum, roots, lo, width: int):
    """(t_atom^r)^2 plus the squares of field rows lo_r .. lo_r + width - 1 of
    each column r of ``roots``, formed by :func:`_field_rows` a block of columns
    at a time, and a bound on their distance from the exact sums of the stored
    entries' squares.

    Each column of n = width + 1 squares p is split at sigma = 2^k > n max p
    (the ExtractVector of Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31 (2008)
    189-224): the parts q = (sigma + p) - sigma are multiples of eps sigma below
    2 sigma in all, so they add exactly, and the rests p - q, exact and each at
    most u sigma (u = eps/2), add within n^2 u^2 sigma <= n^3 eps^2 max p / 2.
    With u for each square and u for the last sum, eps |sum| plus that covers it.
    """
    n = width + 1
    sums, err = np.empty(roots.size), np.empty(roots.size)
    step = max(1, _BLOCK_ELEMENTS // n)
    for i in range(0, roots.size, step):
        r = roots[i:i + step]
        x = np.empty((n, r.size))
        np.sqrt(spectrum.weights[r], out=x[0])
        k = lo[i:i + step] + np.arange(width, dtype=float)[:, None]
        _field_rows(spectrum, k, r, out=x[1:])
        np.square(x, out=x)
        top = x.max(axis=0)
        sigma = np.ldexp(1.0, np.frexp(n * top)[1])
        q = x + sigma
        q -= sigma
        x -= q
        sums[i:i + step] = q.sum(axis=0) + x.sum(axis=0)
        err[i:i + step] = _EPS * sums[i:i + step] + n**3 * _EPS**2 * top
    return sums, err


def _euler_maclaurin(m, s, x):
    """Euler-Maclaurin (DLMF 2.10.1) for sum_k f(k), f(k) = k^2 / (k^2 - u^2)^2,
    u = m + s > 1, over two row segments, the rows of ``x`` their first and
    last rows, each at least K + 1/2 from u: each end's terms, and each end's
    magnitudes, which bound the rounding.

    With y1 = 1/(x - u), y2 = 1/(x + u), f = (y1^2 + y2^2)/4 + (y1 - y2)/(4u), so
    its antiderivative is -x y1 y2 / 2 + ln|(x - u)/(x + u)|/(4u), and
    B_2i/(2i)! f^(2i-1) = -(B_2i/4)(y1^(2i+1) + y2^(2i+1)) - (B_2i/(8iu))(y1^2i -
    y2^2i).  Every f^(2P) is positive away from u, so the remainder after P - 1
    = 4 corrections is at most 2 |B_10|/10! |f^(9)(b) - f^(9)(a)|, below
    ``_EM_REMAINDER`` as |y2| <= |y1| <= h = 1/(K + 1/2).  Each piece (the
    corrections summed by Horner's rule) is formed within 48 u of the
    magnitude of its terms, the antiderivative's logarithm by log1p where the
    ratio is above 1/2, and at most 28 pieces are added, so 40 eps times their
    magnitudes covers the rounding; the corrections' magnitudes are below
    (|y1| + 1/(2u)) y1^2 / 11.
    """
    side = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    u = m + s
    d = (x - m) - s
    y = np.stack((1.0 / d, 1.0 / (x + u)))  # y1, y2
    z = 2.0 * np.minimum(x, u) * y[1]  # 1 - |x - u|/(x + u)
    log = np.where(z <= 0.5, np.log1p(-z), np.log(np.abs(d) * y[1]))
    rational, log = -0.5 * x * y[0] * y[1], log / (4.0 * u)
    half = 0.5 * (x * y[0] * y[1]) ** 2
    q = y * y
    mag = np.abs(rational) + np.abs(log) + half + (np.abs(y[0]) + 0.5 / u) * q[0] / 11.0
    # the corrections by Horner's rule in y^2: sum_i B_2i (y^(2i+1)/4, y^2i/(8i))
    odd, even = 0.0, 0.0
    for i, b in reversed(list(enumerate(_BERNOULLI[:-1], start=1))):
        odd = q * odd + 0.25 * b
        even = q * even + b / (8.0 * i)
    odd *= y * q
    even *= q
    total = side * ((rational + log) - (odd[0] + odd[1]) - (even[0] - even[1]) / u) + half
    return total, mag


def _column_deviation(spectrum: ModeSpectrum) -> np.ndarray:
    """For each column r of t, a bound on |sum_mu (t_mu^r)^2 - 1| over the
    entries that :func:`_field_rows` forms, so over a stored t's columns.

    The outer pair {0, N} sums every row (:func:`_near_norms`): above omega_N
    the antiderivative's two terms would cancel.  An inner root
    sums the atom row and the 2K + 1 field rows nearest its asymptote (K =
    ``_NEAR``, the window shifted inside 1..N), and takes the rows outside, at
    least K + 1/2 from its pole, as (eta/dw)^2 w_r sum f(k) by
    :func:`_euler_maclaurin`.  A stored far entry is within gamma = 4 eps of
    its formula, so its square within 2 gamma + gamma^2; with 2.5 eps for the
    float (eta/dw)^2 w_r and its product, 12 eps of the far part covers both.
    The bound adds to |sum - 1| the near part's error, the far part's
    remainder, rounding and formula terms, and u for the last sum, and is
    raised by 4 eps for its own arithmetic.  A NaN entry or weight leaves a
    NaN bound.
    """
    n = spectrum.params.n_modes
    width = min(2 * _NEAR + 1, n)
    if n == width:
        # every window holds every row (N <= 2K + 1), so both far segments
        # would be empty, and _far_field evaluates empty segments at rows 1
        # and N, the poles of the roots hugging omega_1 and omega_N: at weak
        # coupling log1p divides by zero there.  This branch changes no bits
        return _deviation(*_near_norms(spectrum, np.arange(n + 1), np.ones(n + 1), n))
    norms, err = np.empty(n + 1), np.empty(n + 1)
    outer = np.array([0, n])
    norms[outer], err[outer] = _near_norms(spectrum, outer, np.ones(2), n)
    step = max(1, _BLOCK_ELEMENTS // (width + 1))
    for i in range(1, n, step):
        r = np.arange(i, min(i + step, n))
        lo = np.clip(spectrum.asymptotes[r] - _NEAR, 1, n + 1 - width).astype(float)
        near, near_err = _near_norms(spectrum, r, lo, width)
        far, far_err = _far_field(spectrum, r, lo, width)
        norms[r], err[r] = near + far, near_err + far_err
    return _deviation(norms, err)


def _far_field(spectrum: ModeSpectrum, roots, lo, width: int):
    """Sum of (t_k^r)^2 over the field rows outside lo_r .. lo_r + width - 1 of
    each inner column r of ``roots``, as (eta/dw)^2 w_r sum f(k)
    (:func:`_euler_maclaurin`), and a bound on its distance from the stored
    entries' squares (:func:`_column_deviation`)."""
    p = spectrum.params
    n = p.n_modes
    # the segments 1 .. lo - 1 and lo + width .. N; an empty one (masked) is
    # evaluated at an end of the other, so at rows far from the pole too
    low, high = lo > 1.0, lo + width <= n
    ends = np.stack((np.where(low, 1.0, n), np.where(low, lo - 1.0, n),
                     np.where(high, lo + width, 1.0), np.where(high, n, 1.0)))
    total, mag = _euler_maclaurin(spectrum.asymptotes[roots], spectrum.offsets[roots], ends)
    has = np.stack((low, high))
    c2w = (p.eta / p.delta_omega) ** 2 * spectrum.weights[roots]
    far = c2w * np.where(has, total[0::2] + total[1::2], 0.0).sum(axis=0)
    bound = np.where(has, _EM_REMAINDER + 40.0 * _EPS * (mag[0::2] + mag[1::2]), 0.0)
    return far, c2w * bound.sum(axis=0) + 12.0 * _EPS * np.abs(far)


def _deviation(norms, err):
    """|norms - 1| raised by ``err``, u for the last sum and 4 eps for this arithmetic."""
    return (np.abs(norms - 1.0) + err + 0.5 * _EPS * norms) * (1.0 + 4.0 * _EPS)


def _orthogonality_bound(spectrum: ModeSpectrum, col_dev: np.ndarray) -> np.ndarray:
    """For each column r of t, a bound on row r's absolute sum in t^T t - 1,
    raised for the rounding of t's entries.  Its maximum bounds ||t^T t - 1||_2
    and so every entry of t t^T - 1, whose eigenvalues are the same.

    Off the diagonal |(t^T t)_rs| = a_r a_s |F_r - F_s| / |lam_r - lam_s|, a =
    t_atom = sqrt(w), so row r sums to at most |col_r - 1| + a_r sum_{s != r}
    a_s (|F_r| + |F_s|) / |lam_r - lam_s|, each |F| raised by its rounding
    bound (:meth:`ModeSpectrum.raised_residuals`).  The terms are taken
    exactly for |r - s| <= K (:func:`_near_pair_sums`) and where r or s is one of
    the outer pair {0, N} (the top root can lie far above omega_N); for inner
    r, s farther apart they come in blocks d <= |s - r| < qd, each bounded by
    its sums of a_s and a_s |F_s| over its nearest gap
    (:func:`_far_pair_sums`).  With each offset carried from its nearer
    asymptote (|s| <= 1/2 but for the top root), two roots share one only as
    neighbours r, r+1, and their gap is formed from the offsets, ((s_r+1 -
    s_r)(u_r+1 + u_r)), so it keeps its digits.  Any other two, u_r < u_j, lie
    more than 1/2 apart, and u_r < N, so lam_j - lam_r = (u_j^2 - u_r^2) dw^2 in
    floats is within 1.5 eps (u_j + u_r) / (u_j - u_r) + eps/2 < (6N + 2) eps of
    itself, relative.  A prefix sum of positive terms is within N eps/2 of
    itself, so a block sum is at most its upper prefix raised by (N + 2) eps,
    less its lower prefix.  With the rest of the bound's arithmetic, on
    positive terms only, (7N + 16) eps relative covers it.  A stored entry is
    within gamma = 4 eps of the element these formulas hold for, which moves
    the column norms and each entry of t t^T by at most 2 gamma + gamma^2
    (Cauchy-Schwarz).
    """
    p = spectrum.params
    n = p.n_modes
    m, s = spectrum.asymptotes.astype(float), spectrum.offsets
    u = m + s
    lam = u * u  # lam / dw^2
    close = np.full(n, np.inf)  # the gap of roots r, r+1 on one asymptote
    pairs = np.flatnonzero(m[1:] == m[:-1])
    close[pairs] = (s[pairs + 1] - s[pairs]) * (u[pairs + 1] + u[pairs])
    phi = spectrum.raised_residuals() / p.delta_omega**2  # in the gaps' units
    a = np.sqrt(spectrum.weights)
    b = a * phi
    sums = _near_pair_sums(lam, close, phi, a, b)
    # the outer pair's terms with the roots beyond their windows, each pair once
    outer = [0, n]
    inv = np.abs(lam - lam[outer, None])
    inv[0, :_NEAR + 1] = inv[1, max(0, n - _NEAR):] = inv[1, 0] = np.inf
    np.reciprocal(inv, out=inv)
    sums += phi * (a[outer] @ inv) + b[outer] @ inv
    sums[outer] += phi[outer] * (inv @ a) + inv @ b
    _far_pair_sums(lam[1:n], phi[1:n], a[1:n], b[1:n], out=sums[1:n])
    bound = (col_dev + a * sums) * (1.0 + (7.0 * n + 16.0) * _EPS)
    entry = 2.0 * _ENTRY_ROUNDING + _ENTRY_ROUNDING**2
    return bound + 2.0 * entry * (1.0 + bound)


def _near_pair_sums(lam, close, phi, a, b):
    """Each root's sum of (phi_r a_s + b_s) / |lam_s - lam_r| (b = a phi) over
    the roots s with 0 < |s - r| <= K, a block of rows of windows at a time;
    ``close`` holds the gap of neighbours r, r+1 on one asymptote, inf elsewhere."""
    n = lam.size
    k = min(_NEAR, n - 1)
    pad = np.zeros((3, k))
    pad[0] = np.inf
    # row r of a window: (lam, a, b) at r - k .. r + k; out of range, lam = -+inf, a = b = 0
    windows = sliding_window_view(np.hstack((-pad, np.stack((lam, a, b)), pad)), 2 * k + 1,
                                  axis=1)
    neighbours = np.stack((np.concatenate(([np.inf], close)),  # r - 1, r + 1
                           np.concatenate((close, [np.inf]))), axis=1)
    sums = np.empty(n)
    step = max(1, _BLOCK_ELEMENTS // (2 * k + 1))
    for i in range(0, n, step):
        j = slice(i, i + step)
        gap = np.abs(windows[0, j] - lam[j, None])
        gap[:, k] = np.inf
        nearest = gap[:, [k - 1, k + 1]]
        gap[:, [k - 1, k + 1]] = np.where(neighbours[j] < np.inf, neighbours[j], nearest)
        inv = np.reciprocal(gap, out=gap)
        sums[j] = (phi[j] * np.einsum("ij,ij->i", inv, windows[1, j])
                   + np.einsum("ij,ij->i", inv, windows[2, j]))
    return sums


def _far_pair_sums(lam, phi, a, b, out):
    """Adds to ``out`` a bound on each root's sum of (phi_r a_s + b_s) / |lam_s -
    lam_r| over the roots with |s - r| > K: the s with d <= |s - r| < qd (q =
    ``_BLOCK_RATIO``), from prefix sums of a and b, over the gap to the
    nearest of them (:func:`_orthogonality_bound`)."""
    n = lam.size
    if n <= _NEAR + 1:
        return
    # P[t] = sum_{i < t} (a_i, b_i) at n + t for -n <= t <= 2n, raised for the upper ends
    prefix = np.cumsum(np.stack((a, b)), axis=1)
    prefix = np.hstack((np.zeros((2, n + 1)), prefix, np.repeat(prefix[:, -1:], n, axis=1)))
    raised = prefix * (1.0 + (n + 3.0) * _EPS)
    sums = np.zeros((2, n))  # sum over blocks of (sum a, sum b) / gap
    d = _NEAR + 1
    while d < n:
        e = min(n, max(d + 1, int(np.ceil(_BLOCK_RATIO * d))))
        cnt = n - d
        inv = 1.0 / (lam[d:] - lam[:cnt])
        for rows, hi, lo in ((slice(0, cnt), n + e, n + d), (slice(d, n), n + 1, n + d - e + 1)):
            sums[:, rows] += inv * (raised[:, hi:hi + cnt] - prefix[:, lo:lo + cnt])
        d = e
    out += phi * sums[0] + sums[1]


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
