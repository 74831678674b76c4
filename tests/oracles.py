"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the package's own evaluation paths:
plain trapezoid grids, closed-form 2x2 eigenpairs, LAPACK's secular
solver, direct formula evaluation, one printf template per CSV.  Expected
constants in the test modules were produced by these functions and are
frozen alongside the tolerances they were computed at.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dlasd4


def lorentzian_weight(x, omega_bar, g):
    return x * x / ((x * x - omega_bar**2) ** 2 + 4.0 * g * g * x * x)


def brute_force_imag_integral(t, omega_bar, g, x_max=400.0, n_points=10_000_001,
                              grid=None):
    """-(4g/pi) Integral_0^inf w(x) sin(x t) dx by fine-grid trapezoid.

    The cut-off tail is restored through the leading integration-by-parts
    remainder w(X) cos(X t)/t, below 1e-7 for these parameters.
    """
    if t == 0.0:
        return 0.0
    if grid is None:
        x = np.linspace(0.0, x_max, n_points)
        wx = lorentzian_weight(x, omega_bar, g)
    else:
        x, wx = grid
        x_max = x[-1]
    val = np.trapezoid(wx * np.sin(x * t), x)
    remainder = lorentzian_weight(x_max, omega_bar, g) * np.cos(x_max * t) / t
    return -(4.0 * g / np.pi) * (val + remainder)


def brute_force_grid(omega_bar, g, x_max=400.0, n_points=10_000_001):
    x = np.linspace(0.0, x_max, n_points)
    return x, lorentzian_weight(x, omega_bar, g)


def eig_sym_2x2(a, b, d):
    """Closed-form eigenpairs of [[a, b], [b, d]], ascending.

    Returns (eigenvalues, column eigenvectors with positive first row).
    """
    half_tr = 0.5 * (a + d)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + b * b)
    lam = np.array([half_tr - disc, half_tr + disc])
    vecs = []
    for l in lam:
        if abs(b) > 0:
            v = np.array([b, l - a])
        else:
            v = np.array([1.0, 0.0]) if abs(l - a) < abs(l - d) else np.array([0.0, 1.0])
        v = v / np.linalg.norm(v)
        if v[0] < 0:
            v = -v
        vecs.append(v)
    return lam, np.column_stack(vecs)


def dlasd4_inner_roots(omega_bar, eta_sq, wk):
    """Inner secular roots Omega_1 .. Omega_{N-1} from LAPACK ``dlasd4``.

    R.-C. Li, *Solving secular equations stably and efficiently*, LAPACK
    Working Note 89 (1993).  F(lam) / (-lam) = 1 + omega_bar^2/(0 - lam)
    + eta^2 sum_k 1/(omega_k^2 - lam) is the singular-value secular
    equation with poles d = (0, omega_1 .. omega_N) and rho = omega_bar^2 +
    N eta^2, so the roots come from a solver that shares no code with the
    package.  One call per root, O(N) each: meant for N up to a few thousand.
    """
    n = wk.size
    rho = omega_bar**2 + n * eta_sq
    d = np.concatenate(([0.0], wk))
    z = np.sqrt(np.concatenate(([omega_bar**2], np.full(n, eta_sq))) / rho)
    roots = np.empty(n - 1)
    for r in range(1, n):
        _, roots[r - 1], _, info = dlasd4(r, d, z, rho)
        if info != 0:
            raise RuntimeError(f"dlasd4 returned info={info} for root {r}")
    return roots


def mpmath_secular_offset(params, m, s, dps=80):
    """The root of the secular equation next to offset ``s`` from asymptote
    ``m``, by bisection of F at ``dps`` digits, as an mpf offset.

    F = omega_bar^2 - Omega^2 - eta^2 Omega^2 sum_k 1/(omega_k^2 - Omega^2)
    at Omega = (m + x) dw, with the float64 omega_bar, dw and eta^2 and each
    gap factored, ((k - m) - x)(k + m + x) dw^2.  F falls through the root, so
    the bracket s (1 -+ 1e-12) must hold a sign change.
    """
    import mpmath

    with mpmath.workdps(dps):
        wb, dw, eta_sq = (mpmath.mpf(float(v))
                          for v in (params.omega_bar, params.delta_omega, params.eta_sq))

        def f(x):
            u = m + x
            om2 = (u * dw) ** 2
            return wb**2 - om2 - eta_sq * om2 * mpmath.fsum(
                1 / (((k - m) - x) * (k + u) * dw**2) for k in range(1, params.n_modes + 1))

        x = mpmath.mpf(float(s))
        lo, hi = x - abs(x) * mpmath.mpf("1e-12"), x + abs(x) * mpmath.mpf("1e-12")
        if not f(lo) > 0 > f(hi):
            raise RuntimeError(f"no sign change within 1e-12 of offset {s} from omega_{m}")
        for _ in range(80):  # the bracket to 1e-36 of the offset
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return (lo + hi) / 2


def mpmath_mode_sums(n, m, s, dps=80):
    """(S, S2) = sum_{k=1..N} 1/(k^2 - u^2) and its squares at u = m + s, as
    mpf, for any u off the bare frequencies: each term split as [1/(k-u) -
    1/(k+u)] / (2u), and the sums over k of 1/(k+a) and 1/(k+a)^2 taken as
    digamma and trigamma differences (DLMF 5.7.6, 5.15.1) at ``dps`` digits,
    enough for the cancellation of a small u or of a root that hugs omega_m;
    up to omega_N over k - u (at 1 - u, negative and off the poles, for an
    inner root), above it over u - k, so no argument sits on a pole."""
    import mpmath

    with mpmath.workdps(dps):
        u, psi = mpmath.mpf(m) + mpmath.mpf(float(s)), mpmath.psi
        if u < 1:
            minus, minus2 = psi(0, n + 1 - u) - psi(0, 1 - u), psi(1, 1 - u) - psi(1, n + 1 - u)
        elif u < n:  # psi'(1 - u) by reflection (DLMF 5.15.6), which mpmath is slow to take
            minus = psi(0, n + 1 - u) - psi(0, 1 - u)
            minus2 = (mpmath.pi / mpmath.sin(mpmath.pi * (u - m))) ** 2 - psi(1, u)
            minus2 -= psi(1, n + 1 - u)
        else:
            minus, minus2 = psi(0, u - n) - psi(0, u), psi(1, u - n) - psi(1, u)
        plus, plus2 = psi(0, n + 1 + u) - psi(0, 1 + u), psi(1, 1 + u) - psi(1, n + 1 + u)
        total = (minus - plus) / (2 * u)
        return total, (minus2 + plus2) / (4 * u * u) - total / (2 * u * u)


def exact_deviations(t, block=256):
    """|sum_mu (t_mu^r)^2 - 1| for each column r of a stored t, correctly
    rounded: each square is the sum of two doubles (Dekker's product), and
    math.fsum adds them, a block of columns at a time."""
    out = []
    for i in range(0, t.shape[1], block):
        x = t[:, i:i + block]
        c = 134217729.0 * x
        hi = c - (c - x)
        lo = x - hi
        sq = x * x
        err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
        out += [abs(math.fsum(np.concatenate((sq[:, r], err[:, r], [-1.0]))))
                for r in range(x.shape[1])]
    return np.array(out)


def gram_deviation(t):
    """max |t t^T - 1| of a square transform, by one GEMM: the O(N^3) route to
    its row orthonormality, independent of the bound the package computes."""
    gram = t @ t.T
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.max(np.abs(gram)))


def single_atom_dense_matrix(row, xi):
    """(N+2) x (N+2) reduced matrix of atom A from its amplitude row:
    ground population 1 - xi plus the xi f f^dagger block."""
    n = row.size
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[0, 0] = 1.0 - xi
    m[1:, 1:] = xi * np.outer(row, np.conj(row))
    return m


def free_space_survival_brute(t, omega_bar, g, x_max=400.0, n_points=8_000_001):
    """Full complex survival amplitude from the continuum integral."""
    x = np.linspace(0.0, x_max, n_points)
    w = (4.0 * g / np.pi) * lorentzian_weight(x, omega_bar, g)
    val = np.trapezoid(w * np.exp(-1j * x * t), x)
    if t > 0:
        # integration-by-parts remainder for the truncated upper tail
        wx = (4.0 * g / np.pi) * lorentzian_weight(x_max, omega_bar, g)
        val += -wx * (np.sin(x_max * t) + 1j * np.cos(x_max * t)) / t
    return val



def mpmath_free_space_amplitude(omega_bar, g, t, dps=30):
    """The four-pole closed form of the free-space survival amplitude at ``dps``
    digits, each pole's term taken on its own (omega_bar > g, t > 0):

        f(t) = (4g/pi) sum_j A_j exp(z_j) [E1(z_j) - 2 pi i [j = 1]],  z_j = -i p_j t,

    p_j = +-kappa -+ i g (the order of ``dynamics._poles``), A_j = p_j^2 /
    prod_{m != j} (p_j - p_m).  Returns f and the sum of its terms' moduli,
    (4g/pi) sum_j |A_j exp(z_j) [...]|, the scale its rounding is measured on."""
    import mpmath

    with mpmath.workdps(dps):
        wb, g, t = (mpmath.mpf(float(v)) for v in (omega_bar, g, t))
        kappa = mpmath.sqrt(wb**2 - g**2)
        poles = [kappa - 1j * g, -kappa - 1j * g, kappa + 1j * g, -kappa + 1j * g]
        total = scale = 0
        for j, p in enumerate(poles):
            a = p**2 / mpmath.fprod(p - q for i, q in enumerate(poles) if i != j)
            z = -1j * p * t
            term = a * mpmath.exp(z) * (mpmath.e1(z) - (2j * mpmath.pi if j == 0 else 0))
            total += term
            scale += abs(term)
        c = 4 * g / mpmath.pi
        return complex(c * total), float(c * scale)


# Values formatted per printf call: bounds the template and tuple of a block.
_CSV_BLOCK = 1 << 16


def printf_write_csv(path: Path, header: list[str], table) -> None:
    """Write ``header``, then the rows of the 2-D ``table`` through one printf
    row template: ``%s`` for a column of strings, else ``%.17g``, which prints
    exactly what ``format(float(x), '.17g')`` does (ints, -0.0, nan, inf and
    subnormals included).  The file's directory is created if missing.
    """
    table = np.asarray(table)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in table[:1].ravel()) + "\n"
    step = max(1, _CSV_BLOCK // len(header))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(table), step):
            block = table[i:i + step]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
