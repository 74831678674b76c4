"""Normal-mode spectrum of a dressed atom in a reflecting spherical cavity.

The model: one atom in the harmonic approximation, renormalized frequency
``omega_bar``, coupled linearly with strength ``eta = sqrt(4 g dw / pi)``
to the ``N`` field modes ``omega_k = k pi c / R`` of a perfectly
reflecting sphere of radius ``R`` (mode spacing ``dw = pi c / R``).

The collective oscillation frequencies ``Omega_r`` are the N+1 roots of
the secular equation

    omega_bar^2 - Omega^2 = eta^2 Omega^2 sum_{k=1..N} 1/(omega_k^2 - Omega^2),

one root below the first bare frequency, one between each pair of
consecutive bare frequencies, and one above the last.  In the
infinite-mode limit the sum telescopes into a cotangent:

    cot(R Omega / c) = Omega/(2 g) + (c/(R Omega)) (1 - R omega_bar^2/(2 g c)),

which is what :func:`cotangent_curves` samples and what the small-cavity
approximation expands.  All quantities are in consistent arbitrary units
(``c = 1`` is the conventional choice).

Everything here is a pure function of its inputs; the returned spectra
are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg.lapack import dlasd4
from scipy.special import digamma, polygamma

from .errors import ConvergenceFailure, InvariantViolation, RegimeViolation

__all__ = [
    "DressedAtomParams",
    "ModeSpectrum",
    "field_frequencies",
    "secular_residual",
    "cotangent_curves",
    "cotangent_residual",
    "newton_correction",
    "solve_eigenfrequencies",
    "first_order_frequencies",
    "approx_small_cavity_spectrum",
    "truncated_mode_sum",
    "truncated_mode_sum_sq",
]

# Up to this mode count dlasd4 solves the inner roots and mode sums are
# direct, O(N) per point; above it the O(1) cotangent/digamma closed form
# and the vectorised bisection take over.
_DIRECT_SUM_LIMIT = 2048

# Step budget of the vectorised bisection: each step halves every bracket,
# and about 55 steps take one mode spacing to 4 ulps of the root.
_BISECT_STEPS = 200

# Regime gate for the small-cavity expansion (delta << 1).
DELTA_THRESHOLD = 0.2

# Bound on the relative Newton correction |F/F'| / Omega^2 at every root.
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DressedAtomParams:
    """Physical constants of one atom-field system.

    Attributes
    ----------
    omega_bar : renormalized atom frequency [1/time]
    g         : coupling constant [1/time]
    radius    : cavity radius R [length]
    c         : wave speed [length/time]
    n_modes   : number of retained field modes N (truncation knob)

    Derived on construction:

    delta_omega : mode spacing pi c / R [1/time]
    eta         : coupling amplitude sqrt(4 g delta_omega / pi) [1/time]
    delta       : g R / (pi c), coupling-to-spacing ratio [dimensionless]
    kappa_sq    : omega_bar^2 - g^2 [1/time^2] (weak-coupling shift)
    """

    omega_bar: float
    g: float
    radius: float
    c: float = 1.0
    n_modes: int = 200
    delta_omega: float = field(init=False)
    eta: float = field(init=False)
    delta: float = field(init=False)
    kappa_sq: float = field(init=False)

    def __post_init__(self):
        if not (self.omega_bar > 0 and self.g > 0 and self.radius > 0 and self.c > 0):
            raise ValueError(
                "omega_bar, g, radius and c must all be positive, got "
                f"omega_bar={self.omega_bar}, g={self.g}, radius={self.radius}, c={self.c}"
            )
        if int(self.n_modes) != self.n_modes or self.n_modes < 1:
            raise ValueError(f"n_modes must be an integer >= 1, got {self.n_modes}")
        object.__setattr__(self, "n_modes", int(self.n_modes))
        object.__setattr__(self, "delta_omega", np.pi * self.c / self.radius)
        object.__setattr__(self, "eta", np.sqrt(4.0 * self.g * self.delta_omega / np.pi))
        object.__setattr__(self, "delta", self.g * self.radius / (np.pi * self.c))
        object.__setattr__(self, "kappa_sq", self.omega_bar**2 - self.g**2)

    @classmethod
    def from_delta(cls, omega_bar, g, delta, c=1.0, n_modes=200):
        """Build params from the dimensionless cavity-size parameter delta."""
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return cls(omega_bar=omega_bar, g=g, radius=np.pi * c * delta / g,
                   c=c, n_modes=n_modes)

    @property
    def eta_sq(self) -> float:
        return 4.0 * self.g * self.delta_omega / np.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModeSpectrum:
    """The N bare field frequencies plus the N+1 normal frequencies.

    ``method`` records provenance: "exact-roots" (secular-equation solve),
    "small-cavity-approx" (first order in delta) or "oracle" (matrix
    diagonalization).
    """

    params: DressedAtomParams
    omegas: np.ndarray
    bigomegas: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "omegas", _readonly(self.omegas))
        object.__setattr__(self, "bigomegas", _readonly(self.bigomegas))
        om, bo = self.omegas, self.bigomegas
        n = self.params.n_modes
        if om.shape != (n,) or bo.shape != (n + 1,):
            raise InvariantViolation(
                f"expected {n} bare and {n + 1} normal frequencies, "
                f"got {om.shape} and {bo.shape}"
            )
        ladder = self.params.delta_omega * np.arange(1, n + 1)
        if not np.allclose(om, ladder, rtol=1e-12, atol=0.0):
            raise InvariantViolation("bare frequencies must be k pi c / R")
        if not np.all(bo > 0):
            raise InvariantViolation("normal frequencies must all be positive")
        if np.any(np.diff(bo) <= 0):
            raise InvariantViolation("normal frequencies must be strictly increasing")
        # Interlacing with the bare-mode asymptotes: one root below omega_1,
        # then exactly one root inside each (omega_k, omega_k+1) gap.
        if not bo[0] < om[0]:
            raise InvariantViolation("lowest normal frequency must lie below omega_1")
        if np.any(bo[1:] <= om) or np.any(bo[1:-1] >= om[1:]):
            raise InvariantViolation("normal frequencies must interlace the bare modes")


def field_frequencies(params: DressedAtomParams) -> np.ndarray:
    """Bare field frequencies omega_k = k pi c / R, k = 1..N, ascending."""
    return params.delta_omega * np.arange(1, params.n_modes + 1)


# ---------------------------------------------------------------------------
# Truncated mode sums
# ---------------------------------------------------------------------------
#
# S(lam)  = sum_{k=1..N} 1/(omega_k^2 - lam)
# S2(lam) = sum_{k=1..N} 1/(omega_k^2 - lam)^2 = dS/dlam
#
# evaluated either directly (exact, O(N)) or through the closed form
#   sum_{k>=1} 1/(k^2 - u^2) = 1/(2u^2) - (pi/2u) cot(pi u)
# minus the digamma tail sum_{k>N} 1/(k^2 - u^2) = [psi(N+1+u)-psi(N+1-u)]/(2u),
# which is O(1) per point and agrees with the direct sum to ~1e-13.

def _mode_sum_closed(lam, n, dw):
    u = np.sqrt(lam) / dw
    with np.errstate(divide="ignore", invalid="ignore"):
        full = 0.5 / (u * u) - np.pi / (2.0 * u * np.tan(np.pi * u))
    tail = (digamma(n + 1 + u) - digamma(n + 1 - u)) / (2.0 * u)
    return (full - tail) / dw**2


def _mode_sum_sq_closed(lam, n, dw):
    lam = np.asarray(lam, dtype=float)
    u = np.sqrt(lam) / dw
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = 1.0 / np.tan(np.pi * u)
    dsig = (
        -1.0 / u**3
        + (np.pi / (2.0 * u * u)) * cot
        + (np.pi**2 / (2.0 * u)) * (1.0 + cot * cot)
        + (digamma(n + 1 + u) - digamma(n + 1 - u)) / (2.0 * u * u)
        - (polygamma(1, n + 1 + u) + polygamma(1, n + 1 - u)) / (2.0 * u)
    )
    return dsig / (2.0 * dw**4 * u)


def _direct_sum(lam, wk2, power):
    lam = np.asarray(lam, dtype=float)
    flat = np.atleast_1d(lam).ravel()
    out = np.empty(flat.shape)
    step = max(1, 2**24 // wk2.size)  # keep the broadcast under ~128 MB
    for s in range(0, flat.size, step):
        e = min(s + step, flat.size)
        out[s:e] = np.sum(1.0 / (wk2 - flat[s:e, None]) ** power, axis=-1)
    return out.reshape(lam.shape) if lam.ndim else out[0]


def _mode_sum(lam, params: DressedAtomParams, method: str, power: int):
    n, dw = params.n_modes, params.delta_omega
    if method == "direct" or (method == "auto" and n <= _DIRECT_SUM_LIMIT):
        return _direct_sum(lam, field_frequencies(params) ** 2, power)
    closed = _mode_sum_closed if power == 1 else _mode_sum_sq_closed
    # The closed form cancels below omega_1 and has spurious poles above
    # omega_N.  Sum directly there: all N terms share one sign, so the direct
    # sum is accurate.
    lam = np.asarray(lam, dtype=float)
    outside = (lam < dw**2) | (lam > (n * dw) ** 2)
    if not np.any(outside):
        return closed(lam, n, dw)
    out = np.empty(lam.shape)
    out[~outside] = closed(lam[~outside], n, dw)
    out[outside] = _direct_sum(lam[outside], field_frequencies(params) ** 2, power)
    return out[()]


def truncated_mode_sum(lam, params: DressedAtomParams, method: str = "auto"):
    """sum_{k=1..N} 1/(omega_k^2 - lam) for scalar or array lam [time^2]."""
    return _mode_sum(lam, params, method, 1)


def truncated_mode_sum_sq(lam, params: DressedAtomParams, method: str = "auto"):
    """sum_{k=1..N} 1/(omega_k^2 - lam)^2 for scalar or array lam."""
    return _mode_sum(lam, params, method, 2)


def secular_residual(omega, params: DressedAtomParams, method: str = "auto"):
    """Defining-equation residual F(Omega^2) at frequency omega.

    F(lam) = omega_bar^2 - lam - eta^2 lam S(lam); F is strictly decreasing
    in lam between consecutive asymptotes, so each bracket holds one root.
    """
    lam = np.asarray(omega, dtype=float) ** 2
    s = truncated_mode_sum(lam, params, method)
    return params.omega_bar**2 - lam - params.eta_sq * lam * s


def newton_correction(omega, params: DressedAtomParams, method: str = "auto"):
    """Relative Newton correction |F/F'| / Omega^2, with |F'| = 1 + eta^2 (S + lam S2).

    dF/dlam = -(1 + eta^2 (S + lam S2)), and at a root 1/|F'| is its atom
    weight (t_atom^r)^2 (:func:`~.coupling.atom_weights`).  Unlike F, the
    correction stays meaningful at a root that hugs its asymptote, where the
    root's last ulp sets F.
    """
    lam = np.asarray(omega, dtype=float) ** 2
    s = truncated_mode_sum(lam, params, method)
    residual = params.omega_bar**2 - lam - params.eta_sq * lam * s
    slope = 1.0 + params.eta_sq * (s + lam * truncated_mode_sum_sq(lam, params, method))
    return np.abs(residual) / (slope * lam)


def cotangent_curves(omega, params: DressedAtomParams):
    """Both sides of the infinite-cavity eigenfrequency condition.

    Returns ``(lhs, rhs)`` with ``lhs = cot(R Omega / c)`` and
    ``rhs = Omega/(2g) + (c/(R Omega))(1 - R omega_bar^2/(2 g c))``.
    Their intersections are the normal frequencies of the untruncated
    system; the finite-N roots approach them as N grows.
    """
    omega = np.asarray(omega, dtype=float)
    r_over_c = params.radius / params.c
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = 1.0 / np.tan(r_over_c * omega)
        rhs = omega / (2.0 * params.g) + (1.0 / (r_over_c * omega)) * (
            1.0 - r_over_c * params.omega_bar**2 / (2.0 * params.g)
        )
    return lhs, rhs


def cotangent_residual(omega, params: DressedAtomParams):
    """lhs - rhs of the infinite-cavity condition (vanishes at its roots)."""
    lhs, rhs = cotangent_curves(omega, params)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Root solving
# ---------------------------------------------------------------------------

def _upper_bound(params: DressedAtomParams) -> float:
    # Gershgorin bound on the largest eigenvalue of the coupled quadratic
    # form; F is guaranteed negative there.
    wk = field_frequencies(params)
    atom_row = params.omega_bar**2 + params.n_modes * params.eta_sq + params.eta * wk.sum()
    mode_rows = wk[-1] ** 2 + params.eta * wk[-1]
    return max(atom_row, mode_rows) + 1.0


def _bisect_brackets(f, lo: np.ndarray, hi: np.ndarray, dw: float) -> np.ndarray:
    """Bisect every bracket (lo, hi) at once; ``f`` must accept frequency arrays.

    F diverges to +inf at the lower asymptote and -inf at the upper one, so
    an offset pair that fails to straddle the root has simply overshot it;
    the offset shrinks geometrically until the signs differ.  Bracket r
    starts at omega_r = r dw (omega_0 = 0), so ``lo`` names the root a
    failure reports.
    """
    def fail(bad: np.ndarray, what: str):
        r = int(round(lo[int(np.argmax(bad))] / dw))
        raise ConvergenceFailure(f"{what} in bracket {r}", interval_index=r)

    eps = np.full(lo.shape, 1e-9 * dw)
    floor = 8.0 * np.finfo(float).eps * hi
    for _ in range(64):
        a = lo + eps
        b = hi - eps
        ok = (a < b) & (f(a) > 0.0) & (f(b) < 0.0)
        if ok.all():
            break
        eps = np.where(ok, eps, 0.1 * eps)
        if np.any(~ok & (eps < floor)):
            fail(~ok & (eps < floor), "no sign change found")
    else:
        fail(~ok, "no sign change found")
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        below = f(mid) < 0.0
        b = np.where(below, mid, b)
        a = np.where(below, a, mid)
        wide = b - a > 4.0 * np.finfo(float).eps * b
        if not wide.any():
            return 0.5 * (a + b)
    fail(wide, f"bisection not converged after {_BISECT_STEPS} steps")


def solve_eigenfrequencies(params: DressedAtomParams, *,
                           method: str = "auto") -> ModeSpectrum:
    """Solve the secular equation for all N+1 normal frequencies.

    Each root is bracketed between consecutive bare-mode asymptotes
    (the lowest in (0, omega_1), the highest between omega_N and a
    Gershgorin bound).  The two outer roots are bisected on the direct
    mode sum.  For N <= 2048 the N-1 inner roots come from LAPACK
    ``dlasd4`` (R.-C. Li, LAWN 89), which solves F(lam)/(-lam) =
    1 + omega_bar^2/(0 - lam) + eta^2 sum_k 1/(omega_k^2 - lam) = 0;
    above that they are bisected all at once on the cotangent/digamma
    closed form.  After refinement the relative Newton correction
    (:func:`newton_correction`) must fall below 1e-10 at every root.
    Any failure raises :class:`ConvergenceFailure` naming the root.
    """
    n, dw = params.n_modes, params.delta_omega
    wk = field_frequencies(params)
    use_closed = method == "closed" or (method == "auto" and n > _DIRECT_SUM_LIMIT)

    def secular(mode_sum):
        def f(om):
            lam = om * om
            return params.omega_bar**2 - lam - params.eta_sq * lam * mode_sum(lam)
        return f

    roots = np.empty(n + 1)
    # The closed form cancels below omega_1 and has spurious poles above
    # omega_N, and dlasd4's N-scaled stopping test loses ulps on the
    # atom-like top root: the outer brackets always use the direct sum.
    top = np.sqrt(_upper_bound(params))
    roots[[0, n]] = _bisect_brackets(secular(partial(_direct_sum, wk2=wk * wk, power=1)),
                                     np.array([0.0, wk[-1]]), np.array([wk[0], top]), dw)
    if use_closed:
        roots[1:n] = _bisect_brackets(secular(partial(_mode_sum_closed, n=n, dw=dw)),
                                      wk[:-1], wk[1:], dw)
    else:
        rho = params.omega_bar**2 + n * params.eta_sq
        d = np.concatenate(([0.0], wk))
        z = np.sqrt(np.concatenate(([params.omega_bar**2], np.full(n, params.eta_sq))) / rho)
        for r in range(1, n):
            _, roots[r], _, info = dlasd4(r, d, z, rho)
            if info != 0:
                raise ConvergenceFailure(f"dlasd4 returned info={info} for root {r}",
                                         interval_index=r)

    newton_rel = newton_correction(roots, params, "closed" if use_closed else "direct")
    if np.any(newton_rel > _RESIDUAL_TOL):
        bad = int(np.argmax(newton_rel))
        raise ConvergenceFailure(
            f"root {bad} residual {newton_rel[bad]:.3e} exceeds {_RESIDUAL_TOL:.1e}",
            interval_index=bad,
        )
    return ModeSpectrum(params=params, omegas=wk, bigomegas=roots, method="exact-roots")


def first_order_frequencies(params: DressedAtomParams, k_max: int) -> np.ndarray:
    """First-order small-cavity normal frequencies Omega_0 .. Omega_k_max.

    Omega_0 = omega_bar (1 - pi delta / 3)
    Omega_k = (g/delta) (k + 2 delta / (pi k)),  k >= 1
    """
    d = params.delta
    k = np.arange(1, k_max + 1)
    return np.concatenate(([params.omega_bar * (1.0 - np.pi * d / 3.0)],
                           (params.g / d) * (k + 2.0 * d / (np.pi * k))))


def approx_small_cavity_spectrum(params: DressedAtomParams) -> ModeSpectrum:
    """:func:`first_order_frequencies` for all N+1 modes, for delta < DELTA_THRESHOLD."""
    if params.delta >= DELTA_THRESHOLD:
        raise RegimeViolation(
            f"small-cavity expansion needs delta < {DELTA_THRESHOLD}, "
            f"got delta = {params.delta:.4g}"
        )
    return ModeSpectrum(params=params, omegas=field_frequencies(params),
                        bigomegas=first_order_frequencies(params, params.n_modes),
                        method="small-cavity-approx")
