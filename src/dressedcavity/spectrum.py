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
and free space (delta -> infinity).  It is the input:
:class:`DressedAtomParams` holds it as a float64 and derives R = pi delta / g.

Everything here is a pure function of its inputs; the returned spectra
are immutable and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, InvariantViolation, NormalizationFailure, freeze, require

__all__ = [
    "DressedAtomParams",
    "ModeSpectrum",
    "field_frequencies",
    "secular_residual",
    "cotangent_curves",
    "cotangent_residual",
    "solve_eigenfrequencies",
]

# Step budget of the offset solve (:func:`_bisect`).  An inner root takes 2-4
# steps of the cotangent split and its secant from the split at its midpoint
# (at most 21 over 2.6 million roots of 400 spectra across the domain, N up
# to 1e5; 20 from the half-bracket midpoint), the outer pair 3-11 steps of the
# one-pole split and its secant over 2000 spectra, 5.2 on average, or about 80
# halvings where every split leaves the bracket (halvings bring the domain's
# smallest offsets, s ~ 6e-9 at delta = 1e-3, N = 1e5, to 2 ulps of s), and at
# most twice that where splits alternate with midpoints.
_BISECT_STEPS = 200

# Inner roots are solved and derived in blocks of at most this many, each
# run to the end of its own steps, so a step's temporaries stay in cache.
_BLOCK_ELEMENTS = 16384

# Bound on the relative Newton correction |F/F'| / Omega^2 at every root.
_RESIDUAL_TOL = 1e-10

_SAMPLE = 64  # roots at which ModeSpectrum.direct_secular sums the definition, at most


@dataclass(frozen=True)
class DressedAtomParams:
    """Physical constants of one atom-field system, held as float64 values.

    Attributes
    ----------
    omega_bar : renormalized atom frequency [1/time]
    g         : coupling constant [1/time]
    delta     : g R / pi, coupling-to-spacing ratio [dimensionless]
    n_modes   : number of retained field modes N (truncation knob)

    Derived on construction:

    radius      : cavity radius R = pi delta / g [time, with c = 1]
    delta_omega : mode spacing pi / R [1/time]
    eta_sq      : coupling strength eta^2 = 4 g delta_omega / pi [1/time^2]
    eta         : coupling amplitude sqrt(eta_sq) [1/time]
    """

    omega_bar: float
    g: float
    delta: float
    n_modes: int = 200
    radius: float = field(init=False)
    delta_omega: float = field(init=False)
    eta_sq: float = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.omega_bar, self.g, self.delta)):
            raise ValueError(
                "omega_bar, g and delta must all be positive and finite, got "
                f"omega_bar={self.omega_bar}, g={self.g}, delta={self.delta}"
            )
        n = self.n_modes
        if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1):
            raise ValueError(f"n_modes must be an integer >= 1, got {n!r}")
        omega_bar, g, delta = float(self.omega_bar), float(self.g), float(self.delta)
        with np.errstate(over="ignore", divide="ignore"):  # numpy, so an overflow reads as inf
            radius = np.pi * np.float64(delta) / g
            dw = np.pi / radius
            eta_sq = 4.0 * g * dw / np.pi
            scales = (radius, np.float64(omega_bar) ** 2, np.float64(g) ** 2,
                      n * eta_sq, (n * dw) ** 2, dw ** 4)
        if not np.all(np.isfinite(scales)):
            raise ValueError("R, omega_bar^2, g^2, N eta^2, (N dw)^2 and dw^4 must be finite, "
                             "got " + ", ".join(f"{v:.3e}" for v in scales))
        if not scales[-1] >= np.finfo(float).tiny:  # the secular slope divides by dw^4
            raise ValueError(f"dw^4 must be a normal double, >= 2.225e-308, got {scales[-1]:.3e}")
        freeze(self, omega_bar=omega_bar, g=g, delta=delta, n_modes=int(n),
               radius=float(radius), delta_omega=float(dw), eta_sq=float(eta_sq),
               eta=math.sqrt(eta_sq))


DressedAtomParams.from_delta = DressedAtomParams  # the constructor, under its earlier name


@dataclass(frozen=True)
class ModeSpectrum:
    """The N+1 normal frequencies, each carried from its nearer bare frequency.

    Root r is carried as the index m_r of its nearer bare frequency
    (``asymptotes``; omega_0 = 0 for root 0, omega_N for the top root) and
    its signed offset s_r from it in units of dw (``offsets``), which keeps
    every digit of a gap omega_m - Omega_r that the float Omega_r loses.
    The record checks interlacing from the nearer end: root r < N lies in
    (omega_r, omega_r+1) (omega_0 = 0), 0 < s_r <= 1/2 from omega_r or -1/2 <=
    s_r < 0 from omega_r+1, and the top root above omega_N, s_N > 0.
    Derived from them once: ``bigomegas`` = (m_r + s_r) dw, and from one
    evaluation of S and S2 per root (:func:`_secular_sets`), the atom weights
    ``weights`` = (t_atom^r)^2 = 1 / |F'| = 1 / (1 + eta^2 (S + lam S2)) and
    ``newton_rel`` = |F| w_r / Omega_r^2, each root's relative Newton
    correction with F at the carried offsets, which unlike F stays meaningful
    where the root hugs its asymptote, and ``residuals`` = |F|.
    :func:`solve_eigenfrequencies` is the one producer; the first-order
    small-cavity frequencies are :func:`~.dynamics.first_order_modes`.
    """

    params: DressedAtomParams
    asymptotes: np.ndarray
    offsets: np.ndarray
    bigomegas: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    newton_rel: np.ndarray = field(init=False)
    residuals: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.asymptotes, dtype=np.int64)
        s = np.asarray(self.offsets, dtype=float)
        n = self.params.n_modes
        if m.shape != (n + 1,) or s.shape != (n + 1,):
            raise InvariantViolation(
                f"expected {n + 1} asymptotes and offsets, got {m.shape} and {s.shape}")
        # interlacing from the nearer asymptote, on the carried pairs, so exact
        r = np.arange(n + 1)
        ok = np.where(m == r, (0.0 < s) & (s <= 0.5), (m == r + 1) & (-0.5 <= s) & (s < 0.0))
        ok[-1] = (m[-1] == n) & (s[-1] > 0.0)
        require(ok, InvariantViolation,
                "root {i} at offset {} from omega_{} does not interlace the bare modes", s, m)
        bo = _omega(m, s, self.params)[0]
        with np.errstate(over="ignore"):  # a slope past the largest double, refused below
            f, slope = _secular_sets(m, s, self.params)
        w = 1.0 / slope
        require((0.0 < w) & (w < np.inf), NormalizationFailure,
                "root {i} atom weight {:.3e} is not finite and positive (slope {:.3e})", w, slope)
        f = np.abs(f)
        freeze(self, asymptotes=m, offsets=s, bigomegas=bo, weights=w,
               newton_rel=f * w / bo**2, residuals=f)

    def raised_residuals(self) -> np.ndarray:
        """``residuals``, |F(lam_r)| at each root's carried offset as
        :func:`_secular` evaluates it, raised in O(N) by its rounding bound:
        (8 + log2(N+1)) eps times the size of what F is formed from.
        That is |F|, the first term (omega_bar + Omega) |omega_bar - Omega|
        with the rounding of its detuning, dw (|s| + tail) (:func:`_omega_tail`),
        and, on the inner roots, the closed form's terms in eta^2 lam S, at most
        eta^2 (1 + u (1/|s| + ln(2N+1) + 1)) / 2 (pi |cot(pi s)| <= 1/|s| at
        |s| <= 1/2, its digamma pair below ln(2N+1) + 1).  The outer roots'
        F is the same expression, evaluated root by root on their O(1) forms
        (:func:`_outer_sum`), which add only terms of one sign, S within
        4 eps of the exact sum at every N, so there the error of eta^2 lam S
        is at most 4 eps eta^2 lam |S| <= 4 eps ((omega_bar + Omega)
        |omega_bar - Omega| + |F|), inside the raise."""
        p, m, s = self.params, self.asymptotes, self.offsets
        n, a = p.n_modes, np.abs(s)
        om, detuning = _omega(m, s, p)
        f = self.residuals
        terms = 0.5 * p.eta_sq * (1.0 + (m + s) * (1.0 / a + np.log(2.0 * n + 1.0) + 1.0))
        terms[[0, -1]] = 0.0
        tail = _omega_tail(m)
        scale = f + (p.omega_bar + om) * (np.abs(detuning) + p.delta_omega * (a + tail)) + terms
        return f + (8.0 + np.log2(n + 1.0)) * np.finfo(float).eps * scale

    def direct_secular(self) -> tuple[np.ndarray, ...]:
        """(roots, F, |F'|, bound on |F|, bound on |w |F'| - 1|) at a sample of
        roots, F and |F'| from the definition, the N terms over the factored gaps
        (:func:`_direct_sum`), O(N) a root, which share no sum with the closed
        forms behind ``residuals`` and ``weights``.  The sample is at most
        ``_SAMPLE`` roots, every root below that: the outer pair, roots 1 and N-1,
        the two roots about omega_bar and the two about b = N+1-v = 10, where
        :func:`_psi_pair` starts to lift, and the rest drawn seeded by N.

        Each term 1/((k - m - s)(k + m + s)) rounds within 5u and their sum within
        gamma_(N-1) of their moduli, A = sum |1/(k^2 - v^2)| for S (the outer pair's
        |S|, one sign, which F gives as |omega_bar^2 - Omega^2 - F| / (eta v)^2; an
        inner root's at most (1/|s| + 5 + 3 ln(2N+1)) / (2v), from sum 1/|k - v| <=
        1/|s| + 4 + 2 ln 2N and sum 1/(k + v) <= 1 + ln(2N+1)), S2 for S2;
        :func:`_secular` adds 24 roundings: gamma = gamma_(N+32) bounds the route
        relative to its terms.  So F lies within gamma ((omega_bar + Omega)(|omega_bar
        - Omega| + dw (|s| + tail)) + eta^2 v^2 A + |F|) of the exact F
        (:func:`_omega_tail`), which :meth:`raised_residuals` bounds, and w |F'| - 1
        within u (1 + w |F'|) + gamma w (|F'| - 1 + 2 (eta/dw)^2 A) of the exact one,
        which :meth:`weight_bounds` bounds; the weights' bound is raised by 1 + gamma
        for its own arithmetic.
        """
        p, n = self.params, self.params.n_modes
        near = np.searchsorted(self.bigomegas, p.omega_bar)
        lift = np.searchsorted(self.asymptotes + self.offsets, n - 9.0)
        fixed = np.clip([0, 1, near - 1, near, lift - 1, lift, n - 1, n], 0, n).tolist()
        drawn = np.random.default_rng(n).choice(n + 1, min(n + 1, _SAMPLE), replace=False)
        roots = np.sort(list(dict.fromkeys(fixed + drawn.tolist()))[:_SAMPLE])
        u = 0.5 * np.finfo(float).eps
        gamma = (n + 32) * u / (1.0 - (n + 32) * u)
        m, s, w = self.asymptotes[roots], self.offsets[roots], self.weights[roots]
        v, om = m + s, self.bigomegas[roots]
        f, slope = _secular(m, s, p, _direct_sum, slope=True)
        first = (p.omega_bar - om) * (p.omega_bar + om)
        inner = p.eta_sq * (1.0 / np.abs(s) + 5.0 + 3.0 * np.log(2.0 * n + 1.0)) / (2.0 * v)
        terms = np.where((roots == 0) | (roots == n), np.abs(first - f) / (v * v), inner)  # eta^2 A
        detuning = np.abs(p.omega_bar - om) + p.delta_omega * (np.abs(s) + _omega_tail(m))
        scale = (p.omega_bar + om) * detuning + v * v * terms + np.abs(f)
        weight_bound = (self.weight_bounds()[roots] + u * (1.0 + slope * w)
                        + gamma * w * (slope - 1.0 + 2.0 * terms / p.delta_omega**2))
        return (roots, f, slope, self.raised_residuals()[roots] + gamma * scale,
                weight_bound * (1.0 + gamma))

    def weight_bounds(self) -> np.ndarray:
        """A bound, in O(N), on |w_r |F'(lam_r)| - 1| at each root's carried
        offset, F' exact in the float dw and eta^2: how far ``weights``, 1/|F'|
        as :func:`_secular` rounds it, lie from the exact ones.

        First order in u = eps/2, with tan, log and pow within 1 ulp (2u).  T = S
        + v^2 S2 = sum_k k^2/(k^2 - v^2)^2 > 0 at v = m + s, |F'| = 1 + (eta/dw)^2
        T; rounding 1 + eta^2 (s1 + t2) and 1/|F'| leaves |w |F'| - 1| <= 2u + w
        (eta/dw)^2 E u, E u the error of S + v^2 S2 as formed.  s1 = S/dw^2 errs
        relatively by 5u, t2 = om^2 (S2/dw^4) by (7 + 2 omega) u: om lies within
        omega u of v dw, omega = 1 + 2 (|s| + tail)/v (:func:`_omega_tail`).  The
        outer pair's S and S2 lie within 8u of the exact sums (:func:`_outer_sum`):
        E = 13 |S| + (15 + 2 omega) v^2 S2.
        An inner root's closed form (:func:`_closed_sum`) gives T = (DP - P/v)/4,
        P = c + Psi0, DP = c^2 + pi^2 - Psi1, c = pi cot(pi s), Psi0 = psi(a) -
        psi(b), Psi1 = psi'(a) + psi'(b), a = N+1+v, b = N+1-v.  Its steps put
        27 + 2 omega roundings on the cancelling 1/(2v^2) terms, 31 + 2 omega on
        |P|/(4v), 12 + 2 omega on |DP|/4, and the formed c, Psi0 and Psi1 add
        |dP|/(4v) + |dDP|/4, |dP| <= |dc| + |dPsi0| + u |P| and |dDP| <= 2|c dc| +
        (2 c^2 + 1.58 pi^2 + |DP|) u + |dPsi1| (pi^2 rounds within 0.58u).  The
        float pi, within 0.36u, enters pi s and pi/tan both: |dc| <= (0.36 ||c| -
        q| + q + 3|c|) u, q = |s| (pi^2 + c^2).  With t_x = 1/x + 1/x^2 > psi'(x):
        Psi0 <= 2v t_b, Psi1 <= t_a + t_b, |P| <= |c| + Psi0, |DP| <= c^2 + pi^2.
        A psi takes its argument within 2u a (a) or u b (b), and within u again
        when lifted by 10; its series, at most 0.06 at x >= 10, errs by 4u of
        it, its remainder is below 0.4u (psi' 0.64u: the first omitted term,
        DLMF 5.11.2, 5.15.8), and log(a/b) errs by u + 2u (Psi0 + 0.12 + L0).  A
        lift of x < 10, 10 terms (x+j)^-p summing to at most L0 = 1/x + log1p(9/x)
        (p = 1) or L1 = t_x, errs by 3u (4u) a term and 9u more.  So |dPsi0| <=
        (10 + 3 Psi0 + 16 L0) u and |dPsi1| <= (2.5 + 3 Psi1 + 14 L1) u.  The last
        factor, 1 + 64 eps, covers the second order and this arithmetic.
        """
        p, m, s, n = self.params, self.asymptotes, self.offsets, self.params.n_modes
        v = m + s
        omega = 4.0 * (np.abs(s) + _omega_tail(m)) / v + 2.0  # 2 omega
        err = np.empty(n + 1)
        for r in (0, n):
            s1, s2 = _outer_sum(int(m[r]), float(s[r]), n, 2)
            err[r] = 13.0 * abs(s1) + (15.0 + omega[r]) * v[r] ** 2 * s2
        vi, si, oi = v[1:n], s[1:n], omega[1:n]
        c = np.abs(np.pi / np.tan(np.pi * si))
        big_dp = c * c + np.pi**2
        dc = np.abs(si) * big_dp  # q
        dc += 0.36 * np.abs(c - dc) + 3.0 * c
        t_b = (n + 1 - m[1:n]) - si
        t_b = (1.0 + 1.0 / t_b) / t_b
        t_a = (1.0 + 1.0 / (n + 2)) / (n + 2)  # a >= N + 2
        err[1:n] = (2.5 + 1.58 * np.pi**2 + 3.0 * (t_a + t_b) + 2.0 * c * (c + dc)
                    + (13.0 + oi) * big_dp) / 4.0
        psi0 = t_b * 2.0 * vi
        err[1:n] += (dc + 10.0 + 3.0 * psi0 + (32.0 + oi) * (c + psi0)
                     + 2.0 * (27.0 + oi) / vi) / (4.0 * vi)
        tail = slice(max(1, n - 9), n)  # the roots whose b, or a, lies below 10
        for x in ((n + 1 - m[tail]) - s[tail], n + 1 + v[tail]):
            lifts = 4.0 * (1.0 / x + np.log1p(9.0 / x)) / v[tail] + 3.5 * (1.0 + 1.0 / x) / x
            err[tail] += np.where(x < 10.0, lifts, 0.0)
        eps = np.finfo(float).eps
        err *= 0.5 * eps * (1.0 + 64.0 * eps) * p.eta_sq / p.delta_omega**2
        return eps * (1.0 + 64.0 * eps) + self.weights * err


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
# poles (above omega_N), and the outer pair has O(1) forms of its own whose
# terms all have one sign (:func:`_outer_sum`, one root at a time).  Every
# kernel feeds :func:`_secular`, the one statement of F and its slope.  The
# definition, the N terms over the factored gaps omega_k^2 - Omega^2 =
# ((k - m) - s)(k + u) dw^2, is summed only by :func:`secular_residual` and
# :meth:`ModeSpectrum.direct_secular` (:func:`_direct_sum`).  Every kernel
# returns the sums in units of dw^-2 and dw^-4.  The solver never chooses
# between them point by point: each root set of :func:`_root_sets` names its kernel.
# At an inner bracket's midpoint u = r + 1/2, m = r, s = 1/2, the cotangent
# vanishes (pi cot(pi/2) rounds to 1.9e-16) and the digamma tail is the sum
# of the 2r + 1 positive terms 1/(k + 1/2), k = N-r..N+r (DLMF 5.5.2), so one
# running sum outward from k = N gives every midpoint (:func:`_midpoint_tails`).
# numpy's cumsum adds left to right and drifts by up to 190 eps at N = 1e6;
# with the exact error of each addition summed beside it, every midpoint lies
# within 0.6 eps of the tail (40-digit mpmath, N = 64, 1e5 and 1e6).
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


def _closed_sum(m, s, n, powers, cot=None, tail=None):
    c = np.pi / np.tan(np.pi * s) if cot is None else cot  # pi cot(pi u) = pi cot(pi s)
    u = m + s
    psi = [tail] if tail is not None else _psi_pair(n + 1 + u, (n + 1 - m) - s, powers)
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


# Root 0's series: zeta(2j+2) - sum_{k<=8} k^-(2j+2), j = 0..8, correctly rounded.
_HEAD = 8
_ZETA_TAILS = (0.11751201469403143, 0.0005390660076575174, 4.431219440802822e-06,
               4.317325486885005e-08, 4.5606581162331895e-10, 5.046924952108201e-12,
               5.752783958727246e-14, 6.690347987910966e-16, 7.892119332432322e-18)


@functools.lru_cache(maxsize=32)
def _low_series(n: int):
    """(c_j, j c_j), j = 0..8, with c_j = sum_{8<k<=N} k^-(2j+2): the zeta tails less
    the terms beyond N, by Euler-Maclaurin (DLMF 2.10.1) through B_12 for N > 16,
    N^(1-p) [1/(p-1) - 1/(2N) + sum_i B_2i/(2i)! p(p+1)..(p+2i-2) N^-2i] at p = 2j+2,
    at most about 2^(1-p) of the zeta tail it is taken from, so the difference
    loses at most a bit; the finite sum at N <= 16.  O(1) once per N."""
    c = []
    for j, zeta in enumerate(_ZETA_TAILS):
        p = 2 * j + 2
        if n <= 2 * _HEAD:
            c.append(math.fsum(k ** -p for k in range(_HEAD + 1, n + 1)))
            continue
        corr, rising, fact = 0.0, p, 2.0
        for i, b in enumerate(_BERNOULLI[:6], 1):
            corr += b * rising / fact / n ** (2 * i)
            rising *= (p + 2 * i - 1) * (p + 2 * i)
            fact *= (2 * i + 1) * (2 * i + 2)
        c.append(zeta - n ** (1.0 - p) * (1.0 / (p - 1) - 0.5 / n + corr))
    return tuple(c), tuple(j * v for j, v in enumerate(c))


def _low_sums(n: int, m: float, s: float):
    """S, S2 below omega_1 (m = 0 or 1, 0 < u = m + s < 1): the terms k <= 8 on
    the factored gaps, and beyond them sum_j c_j lam^j and sum_j j c_j lam^(j-1)
    (:func:`_low_series`), which converge as (u/9)^2.  Every term is positive."""
    u = m + s
    s1 = s2 = 0.0
    if n > _HEAD:
        c, jc = _low_series(n)
        lam = u * u
        s1, s2 = c[-1], jc[-1]
        for cj, jcj in zip(c[-2:0:-1], jc[-2:0:-1]):
            s1 = s1 * lam + cj
            s2 = s2 * lam + jcj
        s1 = s1 * lam + c[0]
    for k in range(min(n, _HEAD), 0, -1):
        t = 1.0 / (((k - m) - s) * (k + u))
        s1 += t
        s2 += t * t
    return s1, s2


def _psi_gaps(a: float, count: int):
    """(psi(a + count) - psi(a), psi'(a) - psi'(a + count)) for a > 0, that is the
    sums over j < count of 1/(a+j) and 1/(a+j)^2: the terms below a + j = 10
    directly, the rest by :func:`_psi_pair`'s series as differences over the exact
    count, ln(b/a) = log1p(count/a) and each a^-k - b^-k from 1/a - 1/b =
    count/(ab), so that nothing cancels when a >> count."""
    lift = min(count, max(0, math.ceil(10.0 - a)))
    h1 = h2 = 0.0
    if lift < count:
        low, rest = a + lift, count - lift
        ra, rb = 1.0 / low, 1.0 / (low + rest)
        d = rest * ra * rb  # ra - rb
        ya, yb = ra * ra, rb * rb
        dy = d * (ra + rb)  # ya - yb
        e, ybk = dy, yb  # ya^k - yb^k and yb^k
        for k, (c0, c1) in enumerate(zip(*_PSI_SERIES)):
            if k:
                e = ya * e + dy * ybk
                ybk *= yb
            h1 += c0 * e
            h2 += c1 * (ra * e + d * ybk)  # ra^(2k+1) - rb^(2k+1)
        h1 += 0.5 * d + math.log1p(rest * ra)
        h2 += 0.5 * dy + d
    for j in range(lift - 1, -1, -1):
        t = 1.0 / (a + j)
        h1 += t
        h2 += t * t
    return h1, h2


def _top_sums(n: int, s: float):
    """S, S2 above omega_N (u = N + s, s > 0).  DLMF 5.5.4 with psi(u+1) - psi(u)
    = 1/u leaves no cotangent pole: S = [1/u + psi(s) - psi(2N+1+s)] / (2u) and
    S2 = [psi'(s) - psi'(2N+1+s) - 1/u^2] / (4u^2) - S / (2u^2).  Each digamma
    difference sums the 2N+1 positive terms (s+j)^-p, j <= 2N; the one taken off
    is j = N, (s+N)^-p = u^-p, below the term j = 0, so the difference keeps at
    least half its size and every part of S and S2 keeps one sign."""
    u = n + s
    d1, d2 = _psi_gaps(s, 2 * n + 1)
    s1 = 0.5 * (1.0 / u - d1) / u
    return s1, (0.25 * (d2 - 1.0 / (u * u)) - 0.5 * s1) / (u * u)


def _outer_sum(m, s, n, powers):
    """The outer pair's sums in O(1) at one root's offset (m an int, s a float):
    the top root (m = N, s > 0) by :func:`_top_sums`, root 0 by :func:`_low_sums`,
    each within 4 eps of the exact sum.  Summed and returned in plain floats,
    since on one root a numpy call costs more than the arithmetic; the record
    refuses a dw^4 below the smallest normal double, so :func:`_secular`'s
    divisions by dw^2 and dw^4 never divide by zero."""
    sums = _top_sums(n, s) if m == n and s > 0.0 else _low_sums(n, m, s)
    return sums[:powers]


def _omega(m, s, params: DressedAtomParams):
    """(Omega, omega_bar - Omega) at Omega = (m + s) dw, each rounded once:
    dw is split into a 36-bit head and its tail (Veltkamp), so m * head is
    exact for m < 2^17, and the detuning keeps its digits near omega_bar."""
    dw = params.delta_omega
    head = 131073.0 * dw
    head -= head - dw
    whole, rest = m * head, m * (dw - head) + s * dw
    return whole + rest, (params.omega_bar - whole) - rest


def _omega_tail(m):
    """:func:`_omega`'s rounding beyond s dw's, in dw: m 2^-35 where m * head is exact, else m."""
    return np.where(m < 2**17, m * 2.0**-35, m)


def _secular(m, s, params: DressedAtomParams, kernel, slope: bool = False):
    """F(lam) = omega_bar^2 - lam - eta^2 lam S(lam) at Omega = (m + s) dw, with
    S from ``kernel`` (:func:`_closed_sum`, :func:`_outer_sum` or
    :func:`_direct_sum`); with ``slope``, (F, |dF/dlam|) from the same S and one
    S2, where |dF/dlam| = 1 + eta^2 (S + lam S2) = 1 + eta^2 sum_k
    omega_k^2/(omega_k^2 - lam)^2; at a root the slope is 1/(t_atom^r)^2.  The
    one statement of F and its slope for every root set: on arrays of offsets,
    or on one outer root's int and float, all in plain floats (the record holds
    Python floats), with the arrays' bits."""
    om, detuning = _omega(m, s, params)
    sums = kernel(m, s, params.n_modes, 1 + slope)
    s1 = sums[0] / params.delta_omega**2
    f = detuning * (params.omega_bar + om) - params.eta_sq * om * om * s1
    if not slope:
        return f
    return f, 1.0 + params.eta_sq * (s1 + om * om * (sums[1] / params.delta_omega**4))


def _secular_sets(m, s, params: DressedAtomParams):
    """(F, slope) of :func:`_secular` at the offsets (m, s) of N+1 roots, each set
    of :func:`_root_sets` on its own kernel: an inner block on its arrays, the
    outer pair root by root in plain floats."""
    out = np.empty((2, m.size))
    for roots, _, kernel in _root_sets(params.n_modes):
        if isinstance(roots, slice):
            out[:, roots] = _secular(m[roots], s[roots], params, kernel, slope=True)
            continue
        for i, mi, si in zip(roots.tolist(), m[roots].tolist(), s[roots].tolist()):
            out[:, i] = _secular(mi, si, params, kernel, slope=True)
    return out


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

def _top_bracket(params: DressedAtomParams):
    """The top root's bracket (lo, hi), as offsets from omega_N in units of dw.

    Above omega_N, F = A - lam + eta^2 sum_k omega_k^2 / (lam - omega_k^2), A =
    omega_bar^2 + N eta^2, and each term lies between omega_k^2 / lam and omega_k^2
    / (lam - W), W = omega_N^2.  With c = eta^2 sum_k omega_k^2 = eta^2 W (N+1)(2N+1)
    / 6N, F >= 0 at lam0 = [A + sqrt(A^2 + 4c)] / 2, the root of A - lam + c/lam,
    and F <= 0 at W + x, x the root of B - x + c/x, B = A - W: (B + r) / 2, or
    2c / (r - B) where B < 0, r = sqrt(B^2 + 4c).  At N = 1 that bound is the root.
    An end W + y is the offset y / (dw (omega_N + sqrt(W + y))), the lower clipped at 0.
    Each end moves out by its rounding bound, 24u L = 12 eps L (u = eps/2, L = A + W
    + 2 sqrt(c) above every term).  A, W and sqrt(c) err relatively by 2u, 3u and 5.5u
    and hypot by under 1 ulp, so x errs by at most 11u L (where B < 0, x <= sqrt(c)
    and x / (r - B) <= 1/2) and lam0 - W by 6u L; adding the margin rounds by u L;
    the offset errs relatively by 6u and changes at least half as fast as y: 12u L.
    """
    n, dw = params.n_modes, params.delta_omega
    top = n * dw
    w, a = top * top, params.omega_bar ** 2 + n * params.eta_sq
    b, root_c = a - w, params.eta * top * math.sqrt((n + 1) * (2 * n + 1) / (6 * n))
    r = math.hypot(b, 2.0 * root_c)
    x = 0.5 * (b + r) if b >= 0.0 else 2.0 * root_c * (root_c / (r - b))
    lam0 = 0.5 * (a + math.hypot(a, 2.0 * root_c))
    margin = 12.0 * np.finfo(float).eps * (a + w + 2.0 * root_c)
    ends = max(lam0 - w - margin, 0.0), x + margin
    return tuple(y / dw / (top + math.sqrt(w + y)) for y in ends)


def _inner_split(params: DressedAtomParams, m, x, kernel):
    """F at inner-root offsets x, and the next split of each.

    In [omega_1, omega_N] the closed form holds, F = (eta^2 u / 2)(pi cot(pi s)
    - H(u)) with H smooth, and the split is the offset where pi cot(pi s)
    meets H as it stood at x.  There dH/du > -3.1 (the digamma tail rises by
    less than psi'(1) + psi'(3) < 2.1 per unit of u, the rest falls by at
    most 1), so that map has slope below 1/3 and the root lies within one
    step of any split.
    """
    c = np.pi / np.tan(np.pi * x)  # one cotangent per step, shared with the kernel
    f = _secular(m, x, params, functools.partial(kernel, cot=c))
    return f, _cot_split(params, m + x, f, c)


def _cot_split(params: DressedAtomParams, u, f, c):
    """The offset where pi cot(pi s) meets H = c - 2F / (eta^2 u), from F and
    c = pi cot(pi s) at one point u: in [-1/2, 1/2], from the nearer asymptote."""
    h = c - 2.0 * f / (params.eta_sq * u)
    return np.arctan(np.pi / h) / np.pi


def _outer_split(params: DressedAtomParams, m, x, kernel):
    """F at outer-root offsets x (root 0, the top root), and the next split of each.

    Each outer root has one nearer pole k (omega_1 or omega_N).  With u = m +
    x, L = u^2, D = k^2 - L and F^ = F/dw^2, the split is the root of the
    one-pole model F^ ~ c + alpha/D fitted to F^ and F' at x: the fixed-weight
    ("middle way") step of R.-C. Li, LAPACK Working Note 89, dL = F^ D / (F^
    + |F'| D) in units of dw^2.  D is formed factored, and so is the new
    offset: from zero frequency (m = 0) as a correction to x, and from the pole
    (m = k) as its new gap D - dL = |F'| D^2 / (F^ + |F'| D) over k + u', so
    the digits of a small u or gap survive however near the pole x lies.  Root
    by root in plain floats, F and F' from :func:`_secular` on :func:`_outer_sum`.
    """
    fs, splits, dw2 = [], [], params.delta_omega**2
    for mi, xi in zip(m.tolist(), x.tolist()):
        f, si = _secular(mi, xi, params, kernel, slope=True)
        fs.append(f)
        fi = f / dw2
        k, u = max(mi, 1), mi + xi  # the pole: omega_1 for root 0, omega_N = omega_m on top
        d = ((k - mi) - xi) * (k + u)
        try:
            q = d / (fi + si * d)
            dl = fi * q
            # a model root below zero frequency leaves the bracket, and the midpoint is taken
            root = math.sqrt(max(u * u + dl, 0.0))
            splits.append(-si * q * d / (k + root) if mi == k else xi + dl / (u + root))
        except ZeroDivisionError:  # a model without a root: the midpoint is taken
            splits.append(math.nan)
    return np.array(fs), np.array(splits)


def _root_sets(n: int):
    """(roots, split, kernel) for each set of an N-mode spectrum's roots: the
    outer pair {0, N} on the one-pole split and its own O(1) forms
    (:func:`_outer_sum`), as an index array, then the inner roots 1..N-1, in
    slices of at most _BLOCK_ELEMENTS, on the cotangent split and the closed
    form.  Each set stays on its kernel's side of the band: the outer
    brackets lie outside (omega_1, omega_N), the inner ones inside
    [omega_1, omega_N].  No set sums the O(N) definition."""
    yield np.array([0, n]), _outer_split, _outer_sum
    for i in range(1, n, _BLOCK_ELEMENTS):
        yield slice(i, min(i + _BLOCK_ELEMENTS, n)), _inner_split, _closed_sum


def _two_sum_error(a, b, s):
    """(a + b) - s exactly, elementwise, where s is a + b rounded (Knuth's TwoSum)."""
    bb = s - a
    err = s - bb
    np.subtract(a, err, out=err)
    np.subtract(b, bb, out=bb)
    err += bb
    return err


def _midpoint_tails(n: int):
    """(r, psi(N+1+u) - psi(N+1-u) at u = r + 1/2) for each block of the inner
    roots r = 1..N-1, r as floats: the sums of the mode-sum notes' half-integer
    form, one running sum outward from k = N, compensated by the exact error of
    each addition (:func:`_two_sum_error`), since ``cumsum`` adds left to right."""
    total, carry = 1.0 / (n + 0.5), 0.0  # the running sum from its term k = N, and its error
    for i in range(1, n, _BLOCK_ELEMENTS):
        r = np.arange(i, min(i + _BLOCK_ELEMENTS, n), dtype=float)
        low, high = (n + 0.5) - r, (n + 0.5) + r
        pair = np.reciprocal(low, out=low) + np.reciprocal(high, out=high)  # k = N -+ r
        err = _two_sum_error(low, high, pair)
        run = np.empty(r.size + 1)
        run[0], run[1:] = total, pair
        np.cumsum(run, out=run)
        err += _two_sum_error(run[:-1], pair, run[1:])
        err[0] += carry
        np.cumsum(err, out=err)
        total, carry = run[-1], err[-1]
        tail = run[1:]
        tail += err
        yield r, tail


def _inner_starts(params: DressedAtomParams, m, a, b, start):
    """Each inner root's asymptote, bracket and start, from F and the cotangent
    split at its bracket's midpoint u = r + 1/2, written block by block into
    ``m``, ``a``, ``b`` and ``start``, which come holding m = r.

    F < 0 at the midpoint puts root r in (0, 1/2] above omega_r, otherwise in
    [-1/2, 0) below omega_r+1.  F there is the closed form on the digamma
    tails of :func:`_midpoint_tails`, with c = pi cot(pi/2) as it rounds.  The
    split at the midpoint (:func:`_cot_split`) is measured from the nearer
    asymptote, so it lies in the bracket, off the asymptote, wherever it has
    the sign of the midpoint's offset a + b; it is the root's start there,
    and the midpoint elsewhere.
    """
    c = np.pi / np.tan(np.pi * 0.5)
    for r, tail in _midpoint_tails(params.n_modes):
        roots = slice(int(r[0]), int(r[-1]) + 1)
        f = _secular(r, 0.5, params, functools.partial(_closed_sum, cot=c, tail=tail))
        split = _cot_split(params, r + 0.5, f, c)
        below = f < 0.0
        mid = np.where(below, 0.5, -0.5)
        m[roots] += ~below
        np.minimum(mid, 0.0, out=a[roots])
        np.maximum(mid, 0.0, out=b[roots])
        start[roots] = np.where(split * mid > 0.0, split, mid)


def _bisect(params: DressedAtomParams, m, a, b, start) -> np.ndarray:
    """Offsets of all N+1 roots from asymptotes ``m``, found in one call in
    brackets (a, b) with F(a) > 0 > F(b) from the points ``start``; a failure
    names a root left over by its index in the spectrum.

    The sets of :func:`_root_sets` are solved one after another, each to the
    end of its own steps.  Each step evaluates F and the set's rational split g
    (:func:`_inner_split`, :func:`_outer_split`) at one point x per live
    root, on the set's kernel, and keeps the part of the bracket with the
    sign change.  The next point is g while that lies in the bracket and is
    not the asymptote itself (offset 0, where F has its pole), otherwise the
    midpoint.

    The cotangent split contracts only linearly, by about -0.345 a step near
    the lowest inner roots, so every root steps by the secant of the split's
    residual r = g - x through this point and the one before, from its second
    point: an inner root starts at the split of its bracket's midpoint a + b
    (:func:`_inner_starts`), so it takes the secant from its first step, with
    the midpoint as the point before.  The secant is taken only inside the
    bracket and within 3/2 r of x: the cotangent split's map has slope below
    1/3, so the root lies there, and a secant beyond it is rounding.  Near
    its root the secant is slower than the one-pole split, whose steps are
    quadratic, and costs the outer pair about one more step a solve.  A root
    is done once its split moves by at most 2 ulps of the offset, and keeps
    that split, held to its bracket, or once its next point moves by at most
    2 ulps of the offset.
    """
    tol = 2.0 * np.finfo(float).eps
    s, index = np.empty(a.shape), np.arange(a.size)
    for roots, split_at, kernel in _root_sets(params.n_modes):
        live, mr, ar, br, x = index[roots], m[roots], a[roots], b[roots], start[roots]
        # the step before's point and residual, for the secant: an inner block's
        # midpoint, whose split is x, or x itself, whose residual 0 gives no secant;
        # NaN for the outer pair, so its first secant is NaN and refused
        xp = ar + br if isinstance(roots, slice) else np.full(live.size, np.nan)
        rp = x - xp
        for _ in range(_BISECT_STEPS):
            f, g = split_at(params, mr, x, kernel)
            np.copyto(ar, x, where=f > 0.0)
            np.copyto(br, x, where=f < 0.0)
            r = g - x
            split = 0.5 * (ar + br)
            np.copyto(split, g, where=(ar <= g) & (g <= br) & (g != 0.0))
            with np.errstate(all="ignore"):  # a flat residual gives no secant
                sec = x - r * ((x - xp) / (r - rp))
            np.copyto(split, sec,
                      where=(ar < sec) & (sec < br) & (np.abs(sec - x) <= 1.5 * np.abs(r)))
            done = np.abs(split - x) <= tol * np.abs(split)
            finished = np.abs(r) <= tol * np.abs(x)
            np.copyto(split, g, where=finished)
            np.minimum(np.maximum(split, ar, out=split), br, out=split)
            done |= finished
            xp, rp = x, r
            if done.any():
                s[live[done]] = split[done]
                keep = ~done
                live, mr, ar, br, split, xp, rp = (
                    v[keep] for v in (live, mr, ar, br, split, xp, rp))
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
    omega_r+1.  The top root is carried from omega_N, in the O(1) bracket of
    F's two moment bounds (:func:`_top_bracket`).  The inner roots' midpoints,
    and the cotangent splits there that start them, come from one running sum
    (:func:`_inner_starts`); the outer pair starts at the middle of its
    bracket.  All N+1 roots are found in one call of
    :func:`_bisect`: the N-1 inner roots by the cotangent split on the
    closed form, in blocks, the two outer roots by the one-pole split on
    their O(1) forms, every root finished by the secant of its split's
    residual; no step costs O(N) per root.
    Every root must then pass the 1e-10 check on the spectrum's
    :attr:`ModeSpectrum.newton_rel`; a failure, NaN included, raises
    :class:`ConvergenceFailure` naming the first root that fails.
    """
    n = params.n_modes
    m = np.arange(n + 1)
    a, b, start = np.zeros(n + 1), np.full(n + 1, 0.5), np.empty(n + 1)
    _inner_starts(params, m, a, b, start)
    f0 = _secular(0, 0.5, params, _outer_sum)
    if not f0 < 0.0:  # root 0 lies in [-1/2, 0) dw below omega_1
        m[0], a[0], b[0] = 1, -0.5, 0.0
    a[-1], b[-1] = _top_bracket(params)
    start[[0, -1]] = 0.5 * (a[[0, -1]] + b[[0, -1]])
    spec = ModeSpectrum(params=params, asymptotes=m, offsets=_bisect(params, m, a, b, start))
    require(spec.newton_rel <= _RESIDUAL_TOL, ConvergenceFailure,
            "root {i} residual {:.3e} exceeds {:.1e}", spec.newton_rel, _RESIDUAL_TOL)
    return spec
