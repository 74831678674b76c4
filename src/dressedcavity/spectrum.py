"""Normal-mode spectrum of a dressed atom in a reflecting spherical cavity.

The model: one atom in the harmonic approximation, renormalized frequency
``omega_bar``, coupled linearly with strength ``eta = sqrt(4 g dw / pi)``
to the ``N`` field modes ``omega_k = k pi / R`` of a perfectly
reflecting sphere of radius ``R`` (mode spacing ``dw = pi / R``).  Units
take the wave speed c = 1, so a length is a time.

The collective oscillation frequencies ``Omega_r`` are the N+1 roots of
the secular equation

    omega_bar^2 - Omega^2 = eta^2 Omega^2 sum_{k=1..N} 1/(omega_k^2 - Omega^2),

one root below the first bare frequency, one between each pair of
consecutive bare frequencies, and one above the last.  Each root is
solved for, and carried as, its signed offset from the nearer bare
frequency, so a root that hugs its asymptote keeps every digit of its gap.
In the infinite-mode limit the sum telescopes into a cotangent:

    cot(R Omega) = Omega/(2 g) + (1/(R Omega)) (1 - R omega_bar^2/(2 g)),

which is what :func:`cotangent_curves` samples and what the small-cavity
approximation expands.  One number, delta = g R / pi, the coupling over
the mode spacing, places a system between the small cavity (delta << 1)
and free space (delta -> infinity).

Everything here is a pure function of its inputs; the returned spectra
are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, InvariantViolation, require

__all__ = [
    "DressedAtomParams",
    "ModeSpectrum",
    "field_frequencies",
    "secular_residual",
    "cotangent_curves",
    "cotangent_residual",
    "solve_eigenfrequencies",
    "first_order_frequencies",
]

# Step budget of the offset solve (:func:`_bisect`).  A root takes 4-15
# rational splits (up to about 35 for the lowest inner roots, where the
# cotangent split contracts by only about 1/3 per step), or about 80 offset
# halvings where every split is refused (halvings bring the domain's smallest
# offsets, s ~ 6e-9 at delta = 1e-3, N = 1e5, to 2 ulps of s), and at most
# twice that where splits alternate with midpoints.
_BISECT_STEPS = 200

# Inner roots are solved and derived in blocks of at most this many, each
# run to the end of its own steps, so a step's temporaries stay in cache.
_BLOCK_ELEMENTS = 16384

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
    radius    : cavity radius R [time, with c = 1]
    n_modes   : number of retained field modes N (truncation knob)

    Derived on construction:

    delta_omega : mode spacing pi / R [1/time]
    eta         : coupling amplitude sqrt(4 g delta_omega / pi) [1/time]
    delta       : g R / pi, coupling-to-spacing ratio [dimensionless]
    """

    omega_bar: float
    g: float
    radius: float
    n_modes: int = 200
    delta_omega: float = field(init=False)
    eta: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.omega_bar, self.g, self.radius)):
            raise ValueError(
                "omega_bar, g and radius must all be positive and finite, got "
                f"omega_bar={self.omega_bar}, g={self.g}, radius={self.radius}"
            )
        if int(self.n_modes) != self.n_modes or self.n_modes < 1:
            raise ValueError(f"n_modes must be an integer >= 1, got {self.n_modes}")
        object.__setattr__(self, "n_modes", int(self.n_modes))
        dw = np.pi / self.radius
        with np.errstate(over="ignore"):
            scales = (np.float64(self.omega_bar) ** 2, np.float64(self.g) ** 2,
                      self.n_modes * (4.0 * self.g * dw / np.pi),
                      np.float64(self.n_modes * dw) ** 2, np.float64(dw) ** 4)
        if not np.all(np.isfinite(scales)):
            raise ValueError("omega_bar^2, g^2, N eta^2, (N dw)^2 and dw^4 must be finite, got "
                             + ", ".join(f"{v:.3e}" for v in scales))
        delta = self.g * self.radius / np.pi
        if not delta > 0:  # g R underflows; the small-cavity route divides by delta
            raise ValueError(f"delta = g R / pi must be positive, got {delta} "
                             f"at g={self.g}, radius={self.radius}")
        object.__setattr__(self, "delta_omega", dw)
        object.__setattr__(self, "eta", np.sqrt(4.0 * self.g * self.delta_omega / np.pi))
        object.__setattr__(self, "delta", delta)

    @classmethod
    def from_delta(cls, omega_bar, g, delta, n_modes=200):
        """Build params from the dimensionless cavity-size parameter delta."""
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return cls(omega_bar=omega_bar, g=g, radius=np.pi * delta / g, n_modes=n_modes)

    @property
    def eta_sq(self) -> float:
        return 4.0 * self.g * self.delta_omega / np.pi


@dataclass(frozen=True)
class ModeSpectrum:
    """The N bare field frequencies plus the N+1 normal frequencies.

    Root r is carried as the index m_r of its nearer bare frequency
    (``asymptotes``; omega_0 = 0 for root 0, omega_N for the top root) and
    its signed offset s_r from it in units of dw (``offsets``), which keeps
    every digit of a gap omega_m - Omega_r that the float Omega_r loses.
    Derived from them once: ``omegas``, ``bigomegas`` = (m_r + s_r) dw, and
    from one evaluation of S and S2 per root (:func:`_secular_sets` with
    ``slope``, each root set on its own kernel), the atom weights ``weights``
    = (t_atom^r)^2 = 1 / |F'| = 1 / (1 + eta^2 (S + lam S2)) and
    ``newton_rel`` = |F| w_r / Omega_r^2, each root's relative Newton
    correction with F at the carried offsets, which unlike F stays
    meaningful where the root hugs its asymptote.
    :func:`solve_eigenfrequencies` is the one producer; the first-order
    small-cavity frequencies are :func:`first_order_frequencies`.
    """

    params: DressedAtomParams
    asymptotes: np.ndarray
    offsets: np.ndarray
    omegas: np.ndarray = field(init=False)
    bigomegas: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    newton_rel: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.asymptotes, dtype=np.int64)
        s = np.asarray(self.offsets, dtype=float)
        n = self.params.n_modes
        if m.shape != (n + 1,) or s.shape != (n + 1,):
            raise InvariantViolation(
                f"expected {n + 1} asymptotes and offsets, got {m.shape} and {s.shape}")
        om, bo = field_frequencies(self.params), _omega(m, s, self.params)[0]
        require(bo > 0, InvariantViolation, "normal frequencies must all be positive")
        require(np.diff(bo) > 0, InvariantViolation,
                "normal frequencies must be strictly increasing")
        # Interlacing with the bare-mode asymptotes: one root below omega_1,
        # then exactly one root inside each (omega_k, omega_k+1) gap.
        require(bo[0] < om[0], InvariantViolation, "lowest normal frequency must lie below omega_1")
        require(np.all(bo[1:] > om) & np.all(bo[1:-1] < om[1:]), InvariantViolation,
                "normal frequencies must interlace the bare modes")
        f, slope = _secular_sets(m, s, self.params, slope=True)
        w = 1.0 / slope
        newton_rel = np.abs(f) * w / bo**2
        for name, value in (("asymptotes", m), ("offsets", s), ("omegas", om),
                            ("bigomegas", bo), ("weights", w), ("newton_rel", newton_rel)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def field_frequencies(params: DressedAtomParams) -> np.ndarray:
    """Bare field frequencies omega_k = k pi / R, k = 1..N, ascending."""
    return params.delta_omega * np.arange(1, params.n_modes + 1)


# ---------------------------------------------------------------------------
# Truncated mode sums
# ---------------------------------------------------------------------------
#
# S(lam)  = sum_{k=1..N} 1/(omega_k^2 - lam)
# S2(lam) = sum_{k=1..N} 1/(omega_k^2 - lam)^2 = dS/dlam
#
# at Omega = (m + s) dw = u dw, m the nearer bare frequency's index and s
# the signed offset from it.  Inside (omega_1, omega_N) they come from the
# O(1) closed form
#   sum_{k>=1} 1/(k^2 - u^2) = 1/(2u^2) - (pi/2u) cot(pi u)
# minus the digamma tail sum_{k>N} 1/(k^2 - u^2) = [psi(N+1+u)-psi(N+1-u)]/(2u),
# where cot(pi u) = cot(pi s) keeps the digits of a small offset that u
# loses.  Outside, the closed form cancels (below omega_1) or has spurious
# poles (above omega_N), and the N terms, all of one sign, are summed over
# the factored gaps omega_k^2 - Omega^2 = ((k - m) - s)(k + u) dw^2.  Both
# kernels return the sums in units of dw^-2 and dw^-4.  The solver never
# chooses between them point by point: each root set of :func:`_root_sets`
# names its kernel, and :func:`secular_residual` takes the direct sum.
# psi, psi': asymptotic series DLMF 5.11.2, 5.15.8 through B_14 on the stacked pair (a, b),
# after ten steps of the recurrence DLMF 5.5.2, 5.15.5 raise arguments below 10 past it;
# psi(a) - psi(b) takes ln(a/b) as one logarithm.

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)  # B_2 .. B_14
_PSI_SERIES = (tuple(c / k for c, k in zip(_BERNOULLI, range(2, 16, 2))), _BERNOULLI)


def _psi_pair(a, b, powers):
    """[psi(a) - psi(b)], with powers 2 also psi'(a) + psi'(b), elementwise, for a, b >= 1."""
    k, x = a.size, np.concatenate((a, b), axis=None)
    low = x < 10.0
    if lifted := np.count_nonzero(low):
        shifted = x[low][:, None] + np.arange(10.0)
        lifts = [np.add.reduce(shifted ** -(1.0 + d), axis=1) for d in range(powers)]
        x[low] += 10.0
    r = 1.0 / x
    y = r * r
    out = []
    for d in range(powers):
        v = _PSI_SERIES[d][-1] * y
        for c in _PSI_SERIES[d][-2::-1]:
            v += c
            v *= y
        v += 0.5 * r  # psi = ln x - v, psi' = r (1 + v)
        if d:
            v = r * (1.0 + v)
        if lifted:
            v[low] += lifts[d]
        v = v[:k] + v[k:] if d else np.log(x[:k] / x[k:]) - (v[:k] - v[k:])
        out.append(v.reshape(a.shape))
    return out


def _closed_sum(m, s, n, powers):
    c = np.pi / np.tan(np.pi * s)  # pi cot(pi u) = pi cot(pi s)
    u = m + s
    a, b = n + 1 + u, (n + 1 - m) - s
    psi = _psi_pair(a, b, powers)
    p = c + psi[0]
    sums = [(0.5 / u - 0.5 * p) / u]
    if powers == 2:
        dp = c * c + np.pi**2 - psi[1]
        sums.append(((0.5 * p - 1.0 / u) / u + 0.5 * dp) / (2.0 * u * u))
    return sums


def _direct_sum(m, s, n, powers):
    k = np.arange(1.0, n + 1)
    shape, m, s = np.shape(m), np.ravel(m), np.ravel(s)
    out = np.empty((powers, m.size))
    block = max(1, 2**15 // n)  # points at a time: keeps the work array in cache
    for i in range(0, m.size, block):
        mi, si = m[i:i + block, None], s[i:i + block, None]
        gap = k - mi
        gap -= si
        gap *= k + (mi + si)
        inv = np.reciprocal(gap, out=gap)
        out[0, i:i + block] = inv.sum(axis=-1)
        if powers == 2:
            out[1, i:i + block] = np.square(inv, out=inv).sum(axis=-1)
    return out.reshape((powers,) + shape)


def _omega(m, s, params: DressedAtomParams):
    """(Omega, omega_bar - Omega) at Omega = (m + s) dw, each rounded once:
    dw is split into a 36-bit head and its tail (Veltkamp), so m * head is
    exact for m < 2^17, and the detuning keeps its digits near omega_bar."""
    dw = params.delta_omega
    head = 131073.0 * dw
    head -= head - dw
    whole, rest = m * head, m * (dw - head) + s * dw
    return whole + rest, (params.omega_bar - whole) - rest


def _secular(m, s, params: DressedAtomParams, kernel, slope: bool = False):
    """F(lam) = omega_bar^2 - lam - eta^2 lam S(lam) at Omega = (m + s) dw, with
    S from ``kernel`` (:func:`_closed_sum` or :func:`_direct_sum`); with
    ``slope``, (F, |dF/dlam|) from the same S and one S2, where |dF/dlam| = 1 +
    eta^2 (S + lam S2) = 1 + eta^2 sum_k omega_k^2/(omega_k^2 - lam)^2; at a root
    the slope is 1/(t_atom^r)^2."""
    om, detuning = _omega(m, s, params)
    sums = kernel(m, s, params.n_modes, 1 + slope)
    s1 = sums[0] / params.delta_omega**2
    f = detuning * (params.omega_bar + om) - params.eta_sq * om * om * s1
    if not slope:
        return f
    return f, 1.0 + params.eta_sq * (s1 + om * om * (sums[1] / params.delta_omega**4))


def _secular_sets(m, s, params: DressedAtomParams, slope: bool = False):
    """:func:`_secular` at the offsets (m, s) of N+1 roots, each set of
    :func:`_root_sets` on its own kernel."""
    out = np.empty((1 + slope, m.size))
    for roots, _, kernel in _root_sets(params.n_modes):
        out[:, roots] = _secular(m[roots], s[roots], params, kernel, slope)
    return out if slope else out[0]


def secular_residual(omega, params: DressedAtomParams):
    """Defining-equation residual F(Omega^2) at frequency omega.

    F(lam) = omega_bar^2 - lam - eta^2 lam S(lam); F is strictly decreasing
    in lam between consecutive asymptotes, so each bracket holds one root.
    S is the definition, summed term by term (:func:`_direct_sum`) over the
    gaps factored at the nearest bare frequency: valid at every omega > 0,
    independent of the solver's closed form, and O(N) per point.
    """
    u = np.asarray(omega, dtype=float) / params.delta_omega
    m = np.rint(u)
    return _secular(m, u - m, params, _direct_sum)


def cotangent_curves(omega, params: DressedAtomParams):
    """Both sides of the infinite-cavity eigenfrequency condition.

    Returns ``(lhs, rhs)`` with ``lhs = cot(R Omega)`` and
    ``rhs = Omega/(2g) + (1/(R Omega))(1 - R omega_bar^2/(2 g))``.
    Their intersections are the normal frequencies of the untruncated
    system; the finite-N roots approach them as N grows.
    """
    omega = np.asarray(omega, dtype=float)
    r = params.radius
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = 1.0 / np.tan(r * omega)
        rhs = omega / (2.0 * params.g) + (1.0 / (r * omega)) * (
            1.0 - r * params.omega_bar**2 / (2.0 * params.g)
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


def _inner_split(params: DressedAtomParams, m, x, kernel):
    """F at inner-root offsets x, and the next split of each.

    In [omega_1, omega_N] the closed form holds, F = (eta^2 u / 2)(pi cot(pi s)
    - H(u)) with H smooth, and the split is the offset where pi cot(pi s)
    meets H as it stood at x.  There dH/du > -3.1 (the digamma tail rises by
    less than psi'(1) + psi'(3) < 2.1 per unit of u, the rest falls by at
    most 1), so that map has slope below 1/3 and the root lies within one
    step of any split.
    """
    f = _secular(m, x, params, kernel)
    h = np.pi / np.tan(np.pi * x) - 2.0 * f / (params.eta_sq * (m + x))
    return f, np.arctan(np.pi / h) / np.pi


def _outer_split(params: DressedAtomParams, m, x, kernel):
    """F at outer-root offsets x (root 0, the top root), and the next split of each.

    Each outer root has one nearer pole k (omega_1 or omega_N).  With u = m +
    x, L = u^2, D = k^2 - L and F^ = F/dw^2, the split is the root of the
    one-pole model F^ ~ c + alpha/D fitted to F^ and F' at x: the fixed-weight
    ("middle way") step of R.-C. Li, LAPACK Working Note 89, dL = F^ D / (F^
    + |F'| D) in units of dw^2.  D is formed factored, and the new offset as
    a correction to x, so the digits of a small u or gap survive.
    """
    f, slope = _secular(m, x, params, kernel, slope=True)
    k = np.clip(m, 1, params.n_modes)
    u = m + x
    d = ((k - m) - x) * (k + u)
    f_hat = f / params.delta_omega**2
    dl = f_hat * d / (f_hat + slope * d)
    # a model root below zero frequency leaves the bracket, and the midpoint is taken
    return f, x + dl / (u + np.sqrt(np.maximum(u * u + dl, 0.0)))


def _root_sets(n: int):
    """(roots, split, kernel) for each set of an N-mode spectrum's roots: the
    outer pair {0, N} on the one-pole split and the direct sum, then the inner
    roots 1..N-1, in blocks of at most _BLOCK_ELEMENTS, on the cotangent split
    and the closed form.  Each set stays on its kernel's side of the band:
    the outer brackets lie outside (omega_1, omega_N), the inner ones inside
    [omega_1, omega_N]."""
    yield np.array([0, n]), _outer_split, _direct_sum
    for i in range(1, n, _BLOCK_ELEMENTS):
        yield slice(i, min(i + _BLOCK_ELEMENTS, n)), _inner_split, _closed_sum


def _bisect(params: DressedAtomParams, m, a, b) -> np.ndarray:
    """Offsets of all N+1 roots from asymptotes ``m``, found in one call in
    brackets (a, b) with F(a) > 0 > F(b); a failure names a root left over
    by its index in the spectrum.

    The sets of :func:`_root_sets` are solved one after another, each to the
    end of its own steps.  Each step evaluates F at one split per live root,
    on the set's kernel, and keeps the part of the bracket with the sign
    change.  The next split is the set's rational split (:func:`_inner_split`,
    :func:`_outer_split`) while that lies in the bracket and moves at most
    half as far as the step before; otherwise it is the midpoint.  A root is
    done once its split moves by at most 2 ulps of the offset.
    """
    tol = 2.0 * np.finfo(float).eps
    s, index = np.empty(a.shape), np.arange(a.size)
    for roots, split_at, kernel in _root_sets(params.n_modes):
        live, mr, ar, br = index[roots], m[roots], a[roots], b[roots]
        x = 0.5 * (ar + br)
        step = np.full(x.shape, np.inf)
        for _ in range(_BISECT_STEPS):
            f, g = split_at(params, mr, x, kernel)
            np.copyto(ar, x, where=f > 0.0)
            np.copyto(br, x, where=f < 0.0)
            split = 0.5 * (ar + br)
            np.copyto(split, g, where=(ar <= g) & (g <= br) & (np.abs(g - x) <= 0.5 * step))
            step = np.abs(split - x)
            done = step <= tol * np.abs(split)
            if done.any():
                s[live[done]] = split[done]
                keep = ~done
                live, mr, ar, br, split, step = (
                    v[keep] for v in (live, mr, ar, br, split, step))
            if not live.size:
                break
            x = split
        else:
            r = int(live[0])
            raise ConvergenceFailure(f"root {r} not converged after {_BISECT_STEPS} steps",
                                     interval_index=r)
    return s


def solve_eigenfrequencies(params: DressedAtomParams) -> ModeSpectrum:
    """Solve the secular equation for all N+1 normal frequencies.

    Root r lies between omega_r and omega_r+1 (omega_0 = 0) and is solved
    for as its offset from the nearer end: F < 0 at the bracket midpoint
    puts it in (0, 1/2] dw above omega_r, otherwise in [-1/2, 0) dw below
    omega_r+1.  The top root is carried from omega_N: F < 0 half a spacing
    above omega_N puts it in (0, 1/2] dw, otherwise in [1/2, b] dw, b from a
    Gershgorin bound.  All N+1 roots are found in one call of
    :func:`_bisect`: the N-1 inner roots by the cotangent split on the
    closed form, in blocks, the two outer roots by the one-pole split on the
    direct sum.  Every root must then pass the 1e-10 check on the spectrum's
    :attr:`ModeSpectrum.newton_rel`; a failure, NaN included, raises
    :class:`ConvergenceFailure` naming the first root that fails.
    """
    n, dw = params.n_modes, params.delta_omega
    lower = np.arange(n + 1.0)
    below = _secular_sets(lower, np.full(n + 1, 0.5), params) < 0.0
    m = np.where(below, lower, lower + 1)
    a = np.where(below, 0.0, -0.5)
    b = np.where(below, 0.5, 0.0)
    if not below[-1]:  # the top root lies above omega_N + dw/2
        m[-1], a[-1], b[-1] = n, 0.5, np.sqrt(_upper_bound(params)) / dw - n
    spec = ModeSpectrum(params=params, asymptotes=m, offsets=_bisect(params, m, a, b))
    require(spec.newton_rel <= _RESIDUAL_TOL, ConvergenceFailure,
            "root {i} residual {:.3e} exceeds {:.1e}", spec.newton_rel, _RESIDUAL_TOL)
    return spec


def first_order_frequencies(params: DressedAtomParams, k_max: int) -> np.ndarray:
    """First-order small-cavity normal frequencies Omega_0 .. Omega_k_max.

    Omega_0 = omega_bar (1 - pi delta / 3)
    Omega_k = (g/delta) (k + 2 delta / (pi k)),  k >= 1
    """
    d = params.delta
    k = np.arange(1, k_max + 1)
    return np.concatenate(([params.omega_bar * (1.0 - np.pi * d / 3.0)],
                           (params.g / d) * (k + 2.0 * d / (np.pi * k))))
