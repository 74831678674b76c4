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
products; any other grid (non-uniform, a scalar, T < 4) takes b = 1, the
plain sum with one exponential per phase.  Vector weights take the fine
table's pairwise row sums plus one matrix product of the coarse table,
carried as C - 1, and the fine table per block of modes; matrix weights
multiply the table of all T phases.  No block holds more than 2^22
phases (64 MB), so memory does not grow with the mode count.  Two analytic
companions cover the limiting cavity sizes:

* free space (R -> infinity, weak coupling kappa^2 = omega_bar^2 - g^2 > 0):

      f_00(t) = exp(-g t) [cos(kappa t) - (g/kappa) sin(kappa t)] + i G(t)

  where G, a semi-infinite oscillatory integral over the continuum weight,
  has a closed form in the complex exponential integral E1 at the weight's
  four poles (see :func:`free_space_trace`);

* small cavity (delta = g R / pi c << 1): the spectral sum over the
  first-order frequencies, with inverse-square weights, plus its
  closed-form lower bound.

"Survival" throughout means mu = nu = atom: the initially excited dressed
atom is still excited at t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import TransformMatrix, approx_small_cavity_elements
from .errors import InvariantViolation, RegimeViolation, require
from .spectrum import DELTA_THRESHOLD, DressedAtomParams, ModeSpectrum, first_order_frequencies

__all__ = [
    "FreeSpaceParams",
    "AmplitudeTrace",
    "amplitude_discrete",
    "amplitude_trace",
    "amplitude_row",
    "survival_trace",
    "spectral_weight_norm",
    "imag_survival_integral",
    "amplitude_free_space",
    "free_space_trace",
    "survival_sq_large_time",
    "small_cavity_amplitude",
    "survival_sq_small_cavity",
    "survival_sq_lower_bound",
    "series_tail_bound",
]

_ABS_BOUND = 1.0 + 1e-9
_T0_TOL = 1e-9

# Phases (times x modes) in one block of _phase_sum's table: 64 MB of complex.
_BLOCK_ELEMENTS = 2**22

# A time grid is uniform when each time lies within this many multiples of
# eps max|t| of t_0 + i h, the size of the rounding already in Omega t.
_SPLIT_ULPS = 4


@dataclass(frozen=True)
class FreeSpaceParams:
    """Atom constants in the infinite-cavity limit (weak-coupling branch)."""

    omega_bar: float
    g: float
    kappa_sq: float = field(init=False)

    def __post_init__(self):
        if self.omega_bar <= 0 or self.g <= 0:
            raise ValueError("omega_bar and g must be positive")
        k2 = self.omega_bar**2 - self.g**2
        require(k2 > 0, RegimeViolation, "free-space closed form needs omega_bar > g "
                "(kappa^2 > 0); got omega_bar={}, g={}", self.omega_bar, self.g)
        object.__setattr__(self, "kappa_sq", k2)

    @property
    def kappa(self) -> float:
        return np.sqrt(self.kappa_sq)


@dataclass(frozen=True)
class AmplitudeTrace:
    """Time series of one amplitude, tagged with its evaluation route."""

    times: np.ndarray
    values: np.ndarray
    mu: object
    nu: object
    method: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape:
            raise InvariantViolation("times and values must have matching shapes")
        require(np.diff(t) >= 0, InvariantViolation, "times must be non-decreasing")
        # |f| by hypot, as the pair matrix checks it: numpy's array abs of a
        # complex may differ in the last ulp, and the two checks must agree
        mags = np.hypot(v.real, v.imag)
        require(mags <= _ABS_BOUND, InvariantViolation,
                "|amplitude| reached {:.12f} > 1 (unphysical)", mags, t=t)
        if self.method == "discrete-sum" and t.size and t[0] == 0.0:
            # f(0) is 1 where mu and nu name one row ("atom" and 0 alike), else 0
            expected = float(_row_index(self.mu, np.inf) == _row_index(self.nu, np.inf))
            require(abs(v[0] - expected) <= _T0_TOL, InvariantViolation,
                    "amplitude at t=0 is {:.3e}, expected {}", v[0], expected)


def _row_index(label, n_modes: int) -> int:
    """Row of the transform a label names: 0 for "atom" (or 0), k for field mode k."""
    if label == "atom":
        return 0
    if (isinstance(label, (int, np.integer)) and not isinstance(label, bool)
            and 0 <= label <= n_modes):
        return int(label)
    raise ValueError(f"row label must be 'atom' or a mode index 1..{n_modes}, got {label!r}")


# ---------------------------------------------------------------------------
# Discrete-sum route
# ---------------------------------------------------------------------------

def _grid_step(times: np.ndarray) -> tuple[float, int]:
    """(h, b) for a uniform grid times[i] = times[0] + i h of T >= 4 times, with
    b = floor(sqrt(T)); (0.0, 1), the plain sum, for any other grid (non-uniform,
    a scalar, T < 4).

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
    by the rounded exp(-i angle), whose modulus misses 1 by up to eps/4,
    would drift by that much per row.  Rows d = x - 1 follow d + d e + e, so
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


def _phase_sum(times, omegas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_r weights[r] exp(-i omegas[r] t) at every t; shape (T,) + weights.shape[1:].

    On a uniform grid (:func:`_grid_step`), time t_{jb+r} = t_0 + (jb + r) h
    has the phase C[j] F[r], with the coarse table C[j] = exp(-i Omega t_0)
    exp(-i Omega b h)^j and the fine table F[r] = exp(-i Omega h)^r, both
    built by running products: 2 complex exponentials per mode (3 when t_0 !=
    0) instead of T, and about sqrt(T) products per table.  Any other grid
    takes b = 1, the plain sum with one exponential per phase.  Vector
    weights fold into the fine factor, and the coarse table is carried as
    D = C - 1: f(t_{jb+r}) = sum_m w_m F[r, m] + sum_m D[j, m] w_m F[r, m],
    the first a pairwise sum and the second one (T/b x B) . (B x b) complex
    product per block of B modes.  So the product, which adds its terms in
    no stated order, never adds B terms all close to w_m, as C F w would at
    small Omega t.  Matrix weights (one row of amplitudes per time) form the
    T x B table of phases C F and multiply it by the block of weights.  Blocks
    hold at most _BLOCK_ELEMENTS phases of that table (the vector route holds
    T/b + b per mode of them), so memory stays bounded however many modes
    there are.
    """
    times = np.ravel(times)
    h, b = _grid_step(times)
    rows = -(-times.size // b) * b
    step = max(1, _BLOCK_ELEMENTS // max(rows, 1))

    def part(om: np.ndarray, w: np.ndarray) -> np.ndarray:
        if b == 1:
            return np.exp(-1j * np.outer(times, om)) @ w
        f = _powers(om * h, 1.0, b)
        if w.ndim == 1:
            f *= w
            start = _expm1(om * times[0]) if times[0] else 0.0
            d = _powers(om * (b * h), start, rows // b, minus_one=True)
            return (d @ f.T + f.sum(axis=1)).ravel()[:times.size]
        start = np.exp(-1j * (om * times[0])) if times[0] else 1.0
        c = _powers(om * (b * h), start, rows // b)
        return (c[:, None, :] * f).reshape(rows, om.size)[:times.size] @ w

    blocks = (part(omegas[s:s + step], weights[s:s + step])
              for s in range(0, omegas.size, step))
    total = next(blocks)
    for block in blocks:
        total += block
    return total


def amplitude_discrete(tm: TransformMatrix, mu, nu, t: float) -> complex:
    """Exact amplitude f_mu_nu(t) summed over the N+1 normal modes."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    n = tm.spectrum.params.n_modes
    i, j = _row_index(mu, n), _row_index(nu, n)
    return complex(_phase_sum(t, tm.bigomegas, tm.t[i, :] * tm.t[j, :])[0])


def amplitude_trace(tm: TransformMatrix, mu, nu, times) -> AmplitudeTrace:
    """Vectorized discrete-sum amplitude over a time grid."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    n = tm.spectrum.params.n_modes
    i, j = _row_index(mu, n), _row_index(nu, n)
    values = _phase_sum(times, tm.bigomegas, tm.t[i, :] * tm.t[j, :])
    return AmplitudeTrace(times=times, values=values, mu=mu, nu=nu,
                          method="discrete-sum")


def amplitude_row(tm: TransformMatrix, mu, times) -> np.ndarray:
    """All amplitudes f_mu_nu(t) at once; shape (len(times), N+1).

    Column 0 is nu = atom, column k is field mode k.  Row norms are the
    unitarity sums sum_nu |f_mu_nu|^2.
    """
    i = _row_index(mu, tm.spectrum.params.n_modes)
    return _phase_sum(times, tm.bigomegas, tm.t[i][:, None] * tm.t.T)


def survival_trace(spectrum: ModeSpectrum, times,
                   weights: np.ndarray | None = None) -> AmplitudeTrace:
    """Atom survival amplitude directly from spectral weights.

    Avoids the dense transformation matrix, so it stays usable at very
    large mode counts (the weights default to ``spectrum.weights``).
    """
    if weights is None:
        weights = spectrum.weights
    times = np.asarray(times, dtype=float)
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

    The power series DLMF 6.6.2 where w = (|z| + Re z)/2 <= 1/2 and |z| <= 60 (its terms
    cancel by at most e^(2w)); elsewhere the even part of the continued fraction DLMF 6.9.1,
    1/(z+1 - 1/(z+3 - 4/(z+5 - ...))), which reaches rounding in ceil(90/w) + 6 terms (w
    taken as at least 0.09, so at most 1006) and never forms exp(z) or E1(z), which overflow.
    """
    out = np.empty_like(z)
    size = np.abs(z)
    w = 0.5 * (size + z.real)
    near = (w <= 0.5) & (size <= 60.0)
    n = np.arange(1.0, np.e * size[near].max(initial=0.0) + 30.0)
    powers = np.cumprod(-z[near][:, None] / n, axis=1)  # (-z)^n / n!
    out[near] = np.exp(z[near]) * (-np.euler_gamma - np.log(z[near]) - powers @ (1.0 / n))
    terms = (np.ceil(90.0 / np.maximum(w[~near], 0.09)) + 6).astype(np.int64)
    order = np.argsort(-terms, kind="stable")  # most terms first: the live points are a prefix
    zf, terms = z[~near][order], terms[order]
    top = terms.max(initial=0)
    acc = np.zeros_like(zf)
    for k, j in zip(range(top, 0, -1), np.searchsorted(-terms, np.arange(-top, 0), "right")):
        acc[:j] = k * k / (zf[:j] + (2 * k + 1) - acc[:j])
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
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    g, kappa = p.g, p.kappa
    poles, residues = _poles(p.omega_bar, g)
    later = times > 0
    z = -1j * (times[later, None] * poles)
    terms = _exp_e1(z)
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
    decays as 64 g^2 / (pi^2 omega_bar^8 t^6).
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    trig = np.cos(omega_bar * t) - (g / omega_bar) * np.sin(omega_bar * t)
    return float(np.exp(-2.0 * g * t) * trig**2 + 64.0 * g**2 / (omega_bar**8 * t**6))


# ---------------------------------------------------------------------------
# Small-cavity series
# ---------------------------------------------------------------------------

def small_cavity_amplitude(params: DressedAtomParams, times, k_max: int = 10_000) -> np.ndarray:
    """First-order survival amplitude for delta << 1.

    The spectral sum over :func:`~.spectrum.first_order_frequencies` with
    the weights of :func:`~.coupling.approx_small_cavity_elements`,
    (t_0^0)^2 = (1 + 2 pi delta/3)^-1 and (t_0^k)^2 = (4 delta / pi k^2) (t_0^0)^2;
    squaring reproduces the cosine double series with 1/k^2 l^2 weights
    term by term.
    """
    weights = approx_small_cavity_elements(params, k_max)
    return _phase_sum(times, first_order_frequencies(params, k_max), weights)


def survival_sq_small_cavity(t: float, params: DressedAtomParams,
                             k_max: int = 10_000) -> float:
    """|survival amplitude|^2 from the truncated small-cavity series."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    amp = small_cavity_amplitude(params, np.array([t]), k_max)
    return float(np.abs(amp[0]) ** 2)


def small_cavity_trace(params: DressedAtomParams, times,
                       k_max: int = 10_000) -> AmplitudeTrace:
    times = np.asarray(times, dtype=float)
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
    x = 2.0 * np.pi * delta / 3.0
    return float((1.0 - 2.0 * x - x * x) / (1.0 + x) ** 2)


def series_tail_bound(params: DressedAtomParams, k_max: int) -> float:
    """Bound on the |survival|^2 error from truncating the series at k_max.

    The dropped weight sum_{k > k_max} (t_0^k)^2 is below k_max (t_0^k_max)^2,
    because sum_{k > K} 1/k^2 < 1/K.
    """
    dropped = k_max * approx_small_cavity_elements(params, k_max)[-1]
    return 2.0 * dropped + dropped**2
