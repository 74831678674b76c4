"""Excitation-transfer amplitudes of the dressed system, by three routes.

The amplitude that a single excitation placed on dressed oscillator mu at
t = 0 is found on oscillator nu at time t is

    f_mu_nu(t) = sum_r t_mu^r t_nu^r exp(-i Omega_r t),

an exact finite sum over normal modes ("discrete-sum" route).  It and the
small-cavity series share one kernel, ``_phase_sum``, for sum_r w_r
exp(-i Omega_r t).  On a uniform grid of T >= 4 times, each within a few
ulps of t_0 + j h, it writes t_{ib+r} = t_0 + (ib + r) h with b =
floor(sqrt(T)) and builds the coarse phases exp(-i Omega (t_0 + ibh)) and
the fine phases exp(-i Omega rh) by running products, so each mode needs 2
complex exponentials (3 when t_0 != 0) and about 2 sqrt(T) complex
products; any other grid (non-uniform, T < 4) takes b = 1, the plain sum
with one exponential per phase.  The weights fold into the fine table,
which meets the coarse table, carried as C - 1, in one matrix product per
block of modes.  A block of the plain sum's table holds at most 2^22
phases (64 MB); the factored tables hold T/b + b rows a mode, 9.3 MB a
block at T = 201.  So memory does not grow with the mode count.  A whole
row of amplitudes (``amplitude_row``), the second route to unitarity and
to the entropy, is the plain definition and shares no code with that
kernel.  Two analytic companions cover the limiting cavity sizes:

* free space (R -> infinity, weak coupling kappa^2 = omega_bar^2 - g^2 > 0):

      f_00(t) = exp(-g t) [cos(kappa t) - (g/kappa) sin(kappa t)] + i G(t)

  where G, a semi-infinite oscillatory integral over the continuum weight,
  has a closed form in the complex exponential integral E1 at the weight's
  four poles (see :func:`free_space_trace`);

* small cavity (delta = g R / pi << 1): the spectral sum over the
  first-order frequencies, with inverse-square weights, of one model
  (:func:`first_order_modes`), plus its closed-form lower bound.

"Survival" throughout means mu = nu = atom: the initially excited dressed
atom is still excited at t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import TransformMatrix, row_index
from .errors import InvariantViolation, RegimeViolation, freeze, require
from .spectrum import DressedAtomParams, ModeSpectrum

__all__ = [
    "FreeSpaceParams",
    "AmplitudeTrace",
    "amplitude_discrete",
    "amplitude_trace",
    "amplitude_row",
    "row_norm_rounding",
    "survival_trace",
    "imag_survival_integral",
    "amplitude_free_space",
    "free_space_trace",
    "survival_sq_large_time",
    "first_order_modes",
    "small_cavity_amplitude",
    "small_cavity_trace",
    "survival_sq_small_cavity",
    "survival_sq_lower_bound",
]

_ABS_BOUND = 1.0 + 1e-9
_T0_TOL = 1e-9

# Phases (times x modes) in one block of _phase_sum's plain table: 64 MB of
# complex.  The factored tables of the same block hold T/b + b rows a mode.
_BLOCK_ELEMENTS = 2**22

# Regime gate of the first-order small-cavity model (delta << 1).
DELTA_THRESHOLD = 0.2

# A time grid is uniform when each time lies within this many multiples of
# eps max|t| of t_0 + i h, the size of the rounding already in Omega t.
_SPLIT_ULPS = 4


@dataclass(frozen=True)
class FreeSpaceParams:
    """Atom constants in the infinite-cavity limit (weak-coupling branch), as float64
    values, with a unit continuum weight (:func:`spectral_weight_norm`)."""

    omega_bar: float
    g: float
    kappa: float = field(init=False)

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.omega_bar, self.g)):
            raise ValueError("omega_bar and g must be positive and finite")
        omega_bar, g = float(self.omega_bar), float(self.g)
        with np.errstate(over="ignore"):  # numpy, so an overflow reads as inf
            w2, g2 = np.float64(omega_bar) ** 2, np.float64(g) ** 2
        if not np.isfinite((w2, g2)).all():
            raise ValueError(f"omega_bar^2 and g^2 must be finite, got {omega_bar=}, {g=}")
        k2 = w2 - g2
        require(k2 > 0, RegimeViolation, "free-space closed form needs omega_bar > g "
                "(kappa^2 > 0); got omega_bar={}, g={}", omega_bar, g)
        s = spectral_weight_norm(omega_bar, g)
        require(abs(s - 1.0) <= 1e-6, InvariantViolation,
                "continuum unitarity weight {:.9f} deviates from 1", s)
        freeze(self, omega_bar=omega_bar, g=g, kappa=math.sqrt(k2))


@dataclass(frozen=True)
class AmplitudeTrace:
    """Time series of one amplitude at times t >= 0, tagged with its evaluation route."""

    times: np.ndarray
    values: np.ndarray
    mu: object
    nu: object
    method: str

    def __post_init__(self):
        freeze(self, times=np.asarray(self.times, dtype=float),
               values=np.asarray(self.values, dtype=complex))
        t, v = self.times, self.values
        if t.shape != v.shape:
            raise InvariantViolation("times and values must have matching shapes")
        require(t >= 0, ValueError, "times must be >= 0")
        require(np.diff(t) >= 0, InvariantViolation, "times must be non-decreasing")
        # |f| by hypot, as the pair matrix checks it: numpy's array abs of a
        # complex may differ in the last ulp, and the two checks must agree
        mags = np.hypot(v.real, v.imag)
        require(mags <= _ABS_BOUND, InvariantViolation,
                "|amplitude| reached {:.12f} > 1 (unphysical)", mags, t=t)
        if self.method == "discrete-sum" and t.size and t[0] == 0.0:
            # f(0) is 1 where mu and nu name one row ("atom" and 0 alike), else 0
            expected = float(row_index(self.mu, np.inf) == row_index(self.nu, np.inf))
            require(abs(v[0] - expected) <= _T0_TOL, InvariantViolation,
                    "amplitude at t=0 is {:.3e}, expected {}", v[0], expected)


def _time_grid(times) -> np.ndarray:
    """The times of a trace as a non-decreasing 1-D float grid of finite
    t >= 0; anything else (a scalar, a 2-D array, a negative, NaN or infinite
    time, a decrease) raises ValueError, before any work is done."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D grid, got shape {times.shape}")
    require((np.diff(times, prepend=0.0) >= 0) & (times < np.inf), ValueError,
            "times must be >= 0, finite and non-decreasing, got {}", times)
    return times


# ---------------------------------------------------------------------------
# Discrete-sum route
# ---------------------------------------------------------------------------

def _grid_step(times: np.ndarray) -> tuple[float, int]:
    """(h, b) for a uniform grid times[i] = times[0] + i h of T >= 4 times, with
    b = floor(sqrt(T)); (0.0, 1), the plain sum, for any other grid (non-uniform,
    T < 4).

    The grid counts as uniform when every time lies within _SPLIT_ULPS eps
    max|t| of times[0] + i h, with h = (times[-1] - times[0]) / (T - 1).
    """
    b = math.isqrt(times.size)
    if b >= 2:
        h = (times[-1] - times[0]) / (times.size - 1)
        tol = _SPLIT_ULPS * np.finfo(float).eps * np.max(np.abs(times))
        if np.max(np.abs(times[0] + np.arange(times.size) * h - times)) <= tol:
            return h, b
    return 0.0, 1


def _expm1(angle: np.ndarray) -> np.ndarray:
    """exp(-i angle) - 1 as -2i sin(angle/2) exp(-i angle/2), correct to a few
    ulps of itself, also where it is far below 1."""
    half = np.exp(-0.5j * angle)
    return 2j * half.imag * half


def _powers(angle: np.ndarray, first, count: int, minus_one: bool = False) -> np.ndarray:
    """Rows first * exp(-i angle)**k, k = 0 .. count-1, of a (count, B) table;
    with ``minus_one``, rows x_k - 1 of that table from first = x_0 - 1.

    Each running product is taken as x + x e, with e = :func:`_expm1`.  At
    small angles |1 + e| then misses 1 by about angle^2 eps, where a product
    by the rounded exp(-i angle), whose modulus misses 1 by up to eps (about
    eps/3 seen), would drift by that much per row.  Rows d = x - 1 follow d + d e + e, so
    each keeps the ulps of its own size, not of 1.
    """
    e = _expm1(angle)
    table = np.empty((count, angle.size), dtype=complex)
    table[0] = first
    for k in range(1, count):
        np.multiply(table[k - 1], e, out=table[k])
        if minus_one:
            table[k] += e
        table[k] += table[k - 1]
    return table


def _phase_sum(times: np.ndarray, omegas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_r weights[r] exp(-i omegas[r] t) at every t of a 1-D grid, shape (T,).

    On a uniform grid (:func:`_grid_step`), time t_{jb+r} = t_0 + (jb + r) h
    has the phase C[j] F[r], with the coarse table C[j] = exp(-i Omega t_0)
    exp(-i Omega b h)^j and the fine table F[r] = exp(-i Omega h)^r, both
    built by running products: 2 complex exponentials per mode (3 when t_0 !=
    0) instead of T, and about sqrt(T) products per table.  Any other grid
    takes b = 1, the plain sum with one exponential per phase.  The weights
    fold into the fine factor, and the coarse table is carried as D = C - 1:
    f(t_{jb+r}) = sum_m w_m F[r, m] + sum_m D[j, m] w_m F[r, m], the first a
    pairwise sum and the second one (T/b x B) . (B x b) complex product per
    block of B modes.  So the product, which adds its terms in no stated
    order, never adds B terms all close to w_m, as C F w would at small
    Omega t.  A block holds at most _BLOCK_ELEMENTS phases (T/b + b per mode),
    so memory stays bounded however many modes there are.
    """
    h, b = _grid_step(times)
    rows = -(-times.size // b) * b
    step = max(1, _BLOCK_ELEMENTS // max(rows, 1))

    def part(om: np.ndarray, w: np.ndarray) -> np.ndarray:
        if b == 1:
            return np.exp(-1j * np.outer(times, om)) @ w
        f = _powers(om * h, 1.0, b)
        f *= w
        start = _expm1(om * times[0]) if times[0] else 0.0
        d = _powers(om * (b * h), start, rows // b, minus_one=True)
        return (d @ f.T + f.sum(axis=1)).ravel()[:times.size]

    blocks = (part(omegas[s:s + step], weights[s:s + step])
              for s in range(0, omegas.size, step))
    total = next(blocks)
    for block in blocks:
        total += block
    return total


def amplitude_discrete(tm: TransformMatrix, mu, nu, t: float) -> complex:
    """Exact amplitude f_mu_nu(t) summed over the N+1 normal modes."""
    return complex(amplitude_trace(tm, mu, nu, [t]).values[0])


def amplitude_trace(tm: TransformMatrix, mu, nu, times) -> AmplitudeTrace:
    """f_mu_nu over a time grid: one vector phase sum with the weights
    t_mu^r t_nu^r of rows mu and nu of ``tm``, O(NT).

    Only those two rows are formed (:meth:`TransformMatrix.row`), at any N.  The
    survival amplitude (mu = nu = atom) weighs by the spectrum's w_r, of which
    the atom row is the root, so it is :func:`survival_trace` bit for bit.
    """
    times = _time_grid(times)
    survival = row_index(mu, np.inf) == row_index(nu, np.inf) == 0
    pair = tm.spectrum.weights if survival else tm.row(mu) * tm.row(nu)
    values = _phase_sum(times, tm.spectrum.bigomegas, pair)
    return AmplitudeTrace(times=times, values=values, mu=mu, nu=nu,
                          method="discrete-sum")


def amplitude_row(tm: TransformMatrix, mu, times) -> np.ndarray:
    """All amplitudes f_mu_nu(t) at once; shape (len(times), N+1).

    Column 0 is nu = atom, column k is field mode k.  Row norms are the
    unitarity sums sum_nu |f_mu_nu|^2.  The plain definition, sharing no
    code with the phase-sum kernel it checks: one exponential per phase,
    scaled by row mu of t, the (N+1) x T table read as (N+1) x 2T reals
    (Re and Im of each time side by side) and met by t in one real product,
    whose (N+1) x 2T result is the amplitudes; t is never copied to complex,
    and each column (one nu at every time) is contiguous in memory.
    """
    times = _time_grid(times)
    table = np.exp(-1j * np.outer(tm.spectrum.bigomegas, times))
    table *= tm.row(mu)[:, None]
    return (tm.t @ table.view(float)).view(complex).T


def row_norm_rounding(tm: TransformMatrix, mu, margin: float) -> float:
    """A bound on how far the row norms sum_nu |f_mu_nu(t)|^2 of
    :func:`amplitude_row`, summed in floats in any order, lie from those of
    the exact amplitudes, at every t: with row mu's unitarity margin
    ``margin``, each lies within it plus this of 1.  O(N), from the row, its
    margin and the column bounds, at any N.

    The row is t (w o phi), w = t_mu, with each phase phi_r = exp(-i x) of
    the rounded angle x = Omega_r t (u = eps/2, gamma_k = k u / (1 - k u)):
      * An error in a phase's angle is another unitary D, which the margin
        covers, so only moduli count.  The imaginary unit times a real x is
        0 - i x exactly, and exp(0) = 1, so libm's complex exp returns cos x
        and -sin x; assuming each within 1 ulp (2u relative), |phi_r| lies
        within 2u of 1.  The weight's product rounds each part once (u).
        So |w_r phi_r| = |w_r| (1 + k), |k| <= (1 + 2u)(1 + u) - 1 <= kappa =
        gamma_3, on every grid.
      * Each stored column has norm at most c = (1 + ``column_deviation``)^1/2.
        So the moduli move the amplitudes by at most kappa c ||w||_1, and the
        real and imaginary (N+1)-term sums by sqrt(2) gamma_{N+1} (1 + kappa)
        c ||w||_1: a distance dist from the exact amplitudes t D w, whose
        norm a is at most (1 + margin)^1/2.
      * Squaring moves the norm by 2 a dist + dist^2, and the 2(N+1) rounded
        squares, summed, add gamma_{2N+3} (a + dist)^2.
    """
    w, u = tm.row(mu), 0.5 * np.finfo(float).eps
    kappa, g_sum, g_squares = (k * u / (1.0 - k * u) for k in (3, w.size, 2 * w.size + 1))
    a = math.sqrt(1.0 + margin)
    dist = (math.sqrt(1.0 + tm.column_deviation) * float(np.abs(w).sum())
            * (kappa + math.sqrt(2.0) * g_sum * (1.0 + kappa)))
    return 2.0 * a * dist + dist**2 + g_squares * (a + dist) ** 2


def survival_trace(spectrum: ModeSpectrum, times,
                   weights: np.ndarray | None = None) -> AmplitudeTrace:
    """Atom survival amplitude directly from spectral weights.

    Avoids the dense transformation matrix, so it stays usable at very
    large mode counts (the weights default to ``spectrum.weights``).
    """
    times = _time_grid(times)
    if weights is None:
        weights = spectrum.weights
    return AmplitudeTrace(times=times, values=_phase_sum(times, spectrum.bigomegas, weights),
                          mu="atom", nu="atom", method="discrete-sum")


# ---------------------------------------------------------------------------
# Free-space closed form
# ---------------------------------------------------------------------------

def _poles(omega_bar: float, g: float) -> tuple[np.ndarray, np.ndarray]:
    """The poles p_j = +-kappa -+ i g of the continuum weight
    h(x) = x^2 / [(x^2 - omega_bar^2)^2 + 4 g^2 x^2], the R -> infinity limit of
    the discrete weights (t_atom^r)^2 / dw, lower half-plane first (kappa
    imaginary for g > omega_bar), and A_j = p_j^2 / prod_{m != j} (p_j - p_m)."""
    kappa = np.sqrt(complex(omega_bar**2 - g**2))
    poles = np.array([kappa - 1j * g, -kappa - 1j * g, kappa + 1j * g, -kappa + 1j * g])
    return poles, poles**2 / (poles[:, None] - poles[None, :] + np.eye(4)).prod(axis=1)


def spectral_weight_norm(omega_bar: float, g: float) -> float:
    """(4g/pi) integral_0^inf h: pi i times the residues at the upper poles of the
    even weight h of :func:`_poles`, Re[4 i g (A_3 + A_4)], 1 for every omega_bar != g."""
    return float((4j * g * _poles(omega_bar, g)[1][2:].sum()).real)


def _exp_e1(z: np.ndarray) -> np.ndarray:
    """exp(z) E1(z) on the principal branch, elementwise over a complex array.

    The power series DLMF 6.6.2 where w = (|z| + Re z)/2 <= 1 and |z| <= 60 (its terms
    cancel by at most e^(2w) <= e^2); elsewhere the even part of the continued fraction
    DLMF 6.9.1, 1/(z+1 - 1/(z+3 - 4/(z+5 - ...))), which reaches rounding in ceil(90/w) + 6
    terms, at most 96 where |z| <= 60 (w taken as at least 0.09, so at most 1006 beyond),
    and never forms exp(z) or E1(z), which overflow.
    """
    out = np.empty_like(z)
    size = np.abs(z)
    w = 0.5 * (size + z.real)
    near = (w <= 1.0) & (size <= 60.0)
    n = np.arange(1.0, np.e * size[near].max(initial=0.0) + 30.0)
    powers = np.cumprod(-z[near][:, None] / n, axis=1)  # (-z)^n / n!
    out[near] = np.exp(z[near]) * (-np.euler_gamma - np.log(z[near]) - powers @ (1.0 / n))
    terms = (np.ceil(90.0 / np.maximum(w[~near], 0.09)) + 6).astype(np.int64)
    order = np.argsort(-terms, kind="stable")  # most terms first: the live points are a prefix
    zf, terms = z[~near][order], terms[order]
    top = terms.max(initial=0)
    acc, den = np.zeros_like(zf), np.empty_like(zf)
    for k, j in zip(range(top, 0, -1), np.searchsorted(-terms, np.arange(-top, 0), "right")):
        np.add(zf[:j], 2 * k + 1, out=den[:j])
        np.subtract(den[:j], acc[:j], out=den[:j])
        np.divide(k * k, den[:j], out=acc[:j])
    out.flat[np.flatnonzero(~near)[order]] = 1.0 / (zf + 1.0 - acc)
    return out


def free_space_trace(p: FreeSpaceParams, times) -> AmplitudeTrace:
    """Survival amplitude in the infinite-cavity limit (weak coupling), in closed form.

    The real part is exp(-g t) [cos(kappa t) - (g/kappa) sin(kappa t)].  The
    imaginary part, -(4g/pi) integral_0^inf h(x) sin(x t) dx, follows from
    partial fractions of the continuum weight h(x) = x^2 / [(x^2 - omega_bar^2)^2
    + 4 g^2 x^2] over its four poles p_j = +-kappa +- i g:

        f(t) = (4g/pi) sum_j A_j exp(-i p_j t) [E1(-i p_j t) - 2 pi i [p_j = kappa - i g]],
        A_j  = p_j^2 / prod_{m != j} (p_j - p_m),

    where the 2 pi i term continues E1 across its cut for the fourth-quadrant
    pole (DLMF 6.2, https://dlmf.nist.gov/6.2).  f(0) = 1 exactly.
    :class:`FreeSpaceParams` requires omega_bar > g, so kappa is real and the
    poles come in conjugate pairs, p_2 = -conj(p_1) and p_4 = -conj(p_3): the
    arguments z_j = -i p_j t pair as z_2 = conj(z_1) and z_4 = conj(z_3), and
    so do the terms exp(z) E1(z) (E1 is real on the positive axis).  They are
    evaluated at poles 1 and 3 only.
    """
    times = _time_grid(times)
    g, kappa = p.g, p.kappa
    poles, residues = _poles(p.omega_bar, g)
    later = times > 0
    z = -1j * (times[later, None] * poles[::2])  # poles 1 and 3; 2 and 4 are their conjugates
    terms = np.empty((z.shape[0], 4), dtype=complex)
    terms[:, ::2] = _exp_e1(z)
    terms[:, 1::2] = terms[:, ::2].conj()
    terms[:, 0] -= 2j * np.pi * np.exp(z[:, 0])
    imag = np.zeros(times.shape)
    imag[later] = (4.0 * g / np.pi) * (terms @ residues).imag
    real = np.exp(-g * times) * (np.cos(kappa * times) - (g / kappa) * np.sin(kappa * times))
    return AmplitudeTrace(times=times, values=real + 1j * imag, mu="atom", nu="atom",
                          method="free-space-closed-form")


def amplitude_free_space(p: FreeSpaceParams, t: float) -> complex:
    """Survival amplitude in the infinite-cavity limit at one time."""
    return complex(free_space_trace(p, [t]).values[0])


def imag_survival_integral(t: float, omega_bar: float, g: float) -> float:
    """-(4g/pi) * integral_0^inf h(x) sin(x t) dx (h of :func:`_poles`), for omega_bar > g."""
    return amplitude_free_space(FreeSpaceParams(omega_bar, g), t).imag


def survival_sq_large_time(t: float, omega_bar: float, g: float) -> float:
    """Late-time survival probability: damped envelope plus power-law floor.

    exp(-2 g t) [cos(omega_bar t) - (g/omega_bar) sin(omega_bar t)]^2
      + 64 g^2 / (omega_bar^8 t^6)

    The power-law term is the quoted closed-form floor, and it is a factor
    pi^2 too large, so treat this as an upper envelope.  In the closed form
    of :func:`free_space_trace` the residue term carries all of exp(-g t),
    and the asymptotic series exp(z) E1(z) ~ 1/z - 1/z^2 + 2/z^3 - ... of
    the four E1 terms gives the tail of the imaginary part: the 1/z and
    1/z^2 orders cancel because the weight and its slope vanish at x = 0,
    and the 2/z^3 order leaves 8g/(pi omega_bar^4 t^3).  |f_00|^2 therefore
    decays as 64 g^2 / (pi^2 omega_bar^8 t^6).  omega_bar and g are read by
    :class:`FreeSpaceParams`, the record of the closed form this envelopes.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    p, t = FreeSpaceParams(omega_bar, g), float(t)
    omega_bar, g = p.omega_bar, p.g
    trig = np.cos(omega_bar * t) - (g / omega_bar) * np.sin(omega_bar * t)
    return float(np.exp(-2.0 * g * t) * trig**2 + 64.0 * g**2 / (omega_bar**8 * t**6))


# ---------------------------------------------------------------------------
# Small-cavity series
# ---------------------------------------------------------------------------

def first_order_modes(params: DressedAtomParams, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-order small-cavity model, for delta < DELTA_THRESHOLD: the
    frequencies Omega_k and the atom's squared elements (t_0^k)^2, k = 0 .. k_max,

    Omega_0 = omega_bar (1 - pi delta / 3),       (t_0^0)^2 = (1 + 2 pi delta / 3)^-1,
    Omega_k = (g/delta) (k + 2 delta / (pi k)),   (t_0^k)^2 = (4/k^2)(delta/pi) (t_0^0)^2.
    """
    d = params.delta
    require(d < DELTA_THRESHOLD, RegimeViolation,
            "small-cavity elements need delta < {}, got delta = {:.4g}", DELTA_THRESHOLD, d)
    if not (isinstance(k_max, (int, np.integer)) and not isinstance(k_max, bool) and k_max >= 1):
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    k = np.arange(1, k_max + 1)
    atom_sq = 1.0 / (1.0 + 2.0 * np.pi * d / 3.0)
    return (np.concatenate(([params.omega_bar * (1.0 - np.pi * d / 3.0)],
                            (params.g / d) * (k + 2.0 * d / (np.pi * k)))),
            np.concatenate(([atom_sq], (4.0 / k**2) * (d / np.pi) * atom_sq)))


def small_cavity_amplitude(params: DressedAtomParams, times, k_max: int = 10_000) -> np.ndarray:
    """First-order survival amplitude for delta << 1.

    The spectral sum over the modes of :func:`first_order_modes`; squaring
    reproduces the cosine double series with 1/k^2 l^2 weights term by term.
    """
    return _phase_sum(_time_grid(times), *first_order_modes(params, k_max))


def survival_sq_small_cavity(t: float, params: DressedAtomParams,
                             k_max: int = 10_000) -> float:
    """|survival amplitude|^2 from the truncated small-cavity series."""
    return float(np.abs(small_cavity_trace(params, [t], k_max).values[0]) ** 2)


def small_cavity_trace(params: DressedAtomParams, times,
                       k_max: int = 10_000) -> AmplitudeTrace:
    """The atom's survival amplitude by the first-order series (:func:`small_cavity_amplitude`)."""
    values = small_cavity_amplitude(params, times, k_max)
    return AmplitudeTrace(times=times, values=values, mu="atom", nu="atom",
                          method="small-cavity-series")


def survival_sq_lower_bound(delta: float) -> float:
    """Worst-case survival probability: every series cosine set to -1.

    (1 + 2 pi delta/3)^-2 (1 - 4 pi delta/3 - 4 pi^2 delta^2/9); positive
    for small delta, which is why a small enough cavity never lets the
    excitation fully decay.
    """
    require(0 <= delta < DELTA_THRESHOLD, RegimeViolation,
            "lower bound needs 0 <= delta < {}, got {}", DELTA_THRESHOLD, delta)
    x = 2.0 * np.pi * float(delta) / 3.0
    return float((1.0 - 2.0 * x - x * x) / (1.0 + x) ** 2)


def series_tail_bound(params: DressedAtomParams, k_max: int) -> float:
    """Bound on the |survival|^2 error from truncating the series at k_max.

    The dropped weight sum_{k > k_max} (t_0^k)^2 is below k_max (t_0^k_max)^2,
    because sum_{k > K} 1/k^2 < 1/K.
    """
    dropped = k_max * first_order_modes(params, k_max)[1][-1]
    return 2.0 * dropped + dropped**2
