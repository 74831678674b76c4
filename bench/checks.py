"""Output checks against references that share no code with the package.

Every reference here is written from the model's defining formulas:

* ``Dense``: ``numpy.linalg.eigh`` of the coupled quadratic form
  B[0,0] = omega_bar^2 + N eta^2, B[k,k] = omega_k^2, B[0,k] = -eta omega_k.
  Its tolerances add the reference's own a-priori error from the LAPACK
  Users' Guide (eigenvalues eps*||B||, eigenvectors eps*||B||/gap) to the
  stated tolerance, so a check never blames the package for the
  reference's rounding.
* ``free_space_brute``: the continuum amplitude
  (4g/pi) int_0^inf h(x) exp(-ixt) dx by a plain trapezoid.
* ``small_cavity_series``: the first-order small-cavity series summed
  directly.

``check(job, outcome)`` returns ``(status, detail)`` with status ``ok``,
``reported`` (the package itself reported a failure), ``wrong`` (the package
reported success but an output check failed) or ``usage`` (the package
rejected the generated input).
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET

import numpy as np

EPS = np.finfo(float).eps
DENSE_MAX_N = 200
FIG_TOL = {"small": 1e-8, "free": 1e-6, "entropy": 1e-8}
UNITARITY_TOL = 1e-6
WEIGHT_TOL = 1e-9
TRACE_TOL = 1e-9
ROUNDING = 1e-12


def spacing(job: dict) -> float:
    """Mode spacing pi c / R for R = pi c delta / g."""
    return job["g"] / job["delta"]


def dense_form(job: dict) -> np.ndarray:
    n = job["n_modes"]
    dw = spacing(job)
    eta_sq = 4.0 * job["g"] * dw / math.pi
    wk = dw * np.arange(1, n + 1)
    b = np.diag(np.concatenate(([job["omega_bar"] ** 2 + n * eta_sq], wk * wk)))
    b[0, 1:] = b[1:, 0] = -math.sqrt(eta_sq) * wk
    return b


class Dense:
    """Dense eigensolution of the quadratic form, with its error bounds."""

    def __init__(self, job: dict):
        self.form = dense_form(job)
        lam, vec = np.linalg.eigh(self.form)
        vec = vec * np.where(vec[0] < 0.0, -1.0, 1.0)
        err = EPS * np.max(np.abs(lam))
        gap = np.full(lam.shape, np.inf)
        if lam.size > 1:
            d = np.diff(lam)
            gap[:-1] = d
            gap[1:] = np.minimum(gap[1:], d)
        self.omega = np.sqrt(np.maximum(lam, 0.0))
        self.omega_err = err / np.maximum(self.omega, math.sqrt(err))
        self.vec = vec
        self.vec_err = np.minimum(1.0, err / gap)
        self.weights = vec[0] ** 2
        self.weight_err = 2.0 * np.abs(vec[0]) * self.vec_err + self.vec_err**2

    def amplitude(self, times: np.ndarray):
        """Atom survival amplitude and its error bound at each time."""
        f = np.exp(-1j * np.outer(times, self.omega)) @ self.weights
        err = self.weight_err.sum() + times * np.sum(self.weights * self.omega_err)
        return f, err + 64.0 * EPS * (self.omega.size + 1)


def free_space_brute(t: float, omega_bar: float, g: float, x_max: float = 400.0,
                     n: int = 8_000_000, chunk: int = 250_000) -> complex:
    """(4g/pi) int_0^inf h(x) exp(-ixt) dx, trapezoid on [0, x_max] plus the
    integration-by-parts term of the cut tail; chunked to keep memory small."""
    def h(x):
        return x * x / ((x * x - omega_bar**2) ** 2 + 4.0 * g * g * x * x)

    dx = x_max / n
    total = 0j
    for s in range(0, n + 1, chunk):
        x = dx * np.arange(s, min(s + chunk, n + 1))
        total += np.sum(h(x) * np.exp(-1j * x * t))
    ends = h(0.0) + h(x_max) * np.exp(-1j * x_max * t)
    val = dx * (total - 0.5 * ends) - 1j * h(x_max) * np.exp(-1j * x_max * t) / t
    return complex(4.0 * g / math.pi * val)


def small_cavity_series(job: dict, times: np.ndarray) -> np.ndarray:
    """First-order small-cavity amplitude: atom term plus sum over k <= k_max."""
    d, g, k_max = job["delta"], job["g"], job["k_max"]
    atom = 1.0 / (1.0 + 2.0 * math.pi * d / 3.0)
    out = atom * np.exp(-1j * job["omega_bar"] * (1.0 - math.pi * d / 3.0) * times)
    for k in range(1, k_max + 1, 20_000):
        kk = np.arange(k, min(k + 20_000, k_max + 1), dtype=float)
        om = (g / d) * (kk + 2.0 * d / (math.pi * kk))
        out = out + np.exp(-1j * np.outer(times, om)) @ ((4.0 * d / math.pi) * atom / kk**2)
    return out


def survival_floor(job: dict) -> float:
    """Worst-case survival probability of the series, less its truncation bound."""
    x = 2.0 * math.pi * job["delta"] / 3.0
    dropped = (4.0 * job["delta"] / math.pi) / (1.0 + x) / job["k_max"]
    return (1.0 - 2.0 * x - x * x) / (1.0 + x) ** 2 - 2.0 * dropped - dropped**2


def entropy_of(xi: float) -> float:
    return -(1.0 - xi) * math.log(1.0 - xi) - xi * math.log(xi)


def interlacing(roots: np.ndarray, job: dict) -> list[str]:
    n = job["n_modes"]
    wk = spacing(job) * np.arange(1, n + 1)
    if roots.shape != (n + 1,):
        return [f"{roots.size} roots, expected {n + 1}"]
    ok = roots[0] > 0 and roots[0] < wk[0] and np.all(roots[1:] > wk) \
        and np.all(roots[1:-1] < wk[1:])
    return [] if ok else ["roots do not interlace the bare modes"]


def _load(out: str, name: str, columns=None) -> np.ndarray:
    return np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, usecols=columns,
                      ndmin=2)


def _worst(label: str, err: np.ndarray, tol) -> list[str]:
    excess = np.asarray(err) - np.asarray(tol)
    i = int(np.argmax(excess))
    if excess.flat[i] > 0.0:
        return [f"{label} off by {np.asarray(err).flat[i]:.2e} "
                f"> {np.broadcast_to(tol, np.shape(err)).flat[i]:.1e}"]
    return []


class Checker:
    """Checks one job's outputs; caches references shared by a run's jobs."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 99])
        self.free_fracs = rng.random(3)
        self.series_fracs = rng.random(4)
        self._dense: dict = {}
        self._free: dict = {}

    def dense(self, job: dict) -> Dense:
        key = (job["omega_bar"], job["g"], job["delta"], job["n_modes"])
        if key not in self._dense:
            self._dense[key] = Dense(job)
        return self._dense[key]

    def free(self, t: float, omega_bar: float, g: float) -> complex:
        key = (t, omega_bar, g)
        if key not in self._free:
            self._free[key] = free_space_brute(t, omega_bar, g)
        return self._free[key]

    def check(self, job: dict, outcome: dict) -> tuple[str, str]:
        rc = outcome["rc"]
        if rc is None:
            return "reported", outcome["error"]
        if rc == 1:
            return "usage", outcome.get("stderr", "").strip()
        if rc != 0:
            detail = outcome.get("stderr", "").strip() or outcome.get("stdout", "").strip()
            if job["kind"] == "oracle-check":
                detail = "; ".join(line for line in outcome["stdout"].splitlines()
                                   if line.endswith("FAIL"))
            return "reported", f"exit {rc}: {detail}"
        try:
            problems = getattr(self, "_" + job["kind"].replace("-", "_"))(job, outcome)
        except (OSError, ValueError, ET.ParseError) as exc:
            problems = [f"unreadable output: {exc}"]
        return ("wrong", "; ".join(problems)) if problems else ("ok", "")

    # -- per-kind checks --------------------------------------------------

    def _grid(self, job: dict, t: np.ndarray) -> list[str]:
        expected = np.linspace(0.0, job["t_max"], job["steps"])
        return [] if np.array_equal(t, expected) else ["time column differs from the grid"]

    def _pair(self, label: str, data: np.ndarray, job: dict, u_ref, tol, rows=slice(None)):
        """Pair-state CSV rows against a reference |f|^2 (identical atoms)."""
        xi, phi = job["xi"], job["phi"]
        _, rho00, rho0101, rho1010, re_c, im_c, d, e = data[rows].T
        coh = math.sqrt(xi * (1.0 - xi)) * np.exp(1j * phi) * u_ref
        out = []
        for name, got, want in (("rho00", rho00, 1.0 - u_ref),
                                ("rho0101", rho0101, (1 - xi) * u_ref),
                                ("rho1010", rho1010, xi * u_ref), ("re_coh", re_c, coh.real),
                                ("im_coh", im_c, coh.imag), ("D", d, 2 * u_ref * (1 - u_ref))):
            out += _worst(f"{label} {name}", np.abs(got - want), tol)
        return out

    def _pair_invariants(self, label: str, data: np.ndarray, job: dict) -> list[str]:
        _, rho00, rho0101, rho1010, re_c, im_c, d, e = data.T
        out = _worst(f"{label} trace", np.abs(rho00 + rho0101 + rho1010 - 1.0), TRACE_TOL)
        if np.any(d < -ROUNDING) or np.any(d > 0.5 + ROUNDING):
            out.append(f"{label} D outside [0, 0.5]")
        out += _worst(f"{label} entropy spread", np.ptp(e), FIG_TOL["entropy"])
        out += _worst(f"{label} entropy", np.abs(e - entropy_of(job["xi"])), FIG_TOL["entropy"])
        return out

    def _impurity(self, job: dict, outcome: dict) -> list[str]:
        out_dir = outcome["out"]
        small = _load(out_dir, "impurity_small_cavity.csv")
        free = _load(out_dir, "impurity_free_space.csv")
        t = small[:, 0]
        problems = self._grid(job, t) + self._grid(job, free[:, 0])
        f_ref, err = self.dense(job).amplitude(t)
        problems += self._pair("small-cavity", small, job, np.abs(f_ref) ** 2,
                               FIG_TOL["small"] + 2.0 * err)
        late = np.flatnonzero(t >= 1.0)
        rows = late[(self.free_fracs * late.size).astype(int)]
        u_free = np.array([abs(self.free(t[i], job["omega_bar"], job["g"])) ** 2 for i in rows])
        problems += self._pair("free-space", free, job, u_free, FIG_TOL["free"], rows)
        for label, data in (("small-cavity", small), ("free-space", free)):
            problems += self._pair_invariants(label, data, job)
        svg = ET.parse(os.path.join(out_dir, "impurity.svg")).getroot()
        if len(svg.findall("{http://www.w3.org/2000/svg}polyline")) < 2:
            problems.append("impurity.svg lacks its two curves")
        return problems

    def _spectrum(self, job: dict, outcome: dict) -> list[str]:
        roots = _load(outcome["out"], "spectrum_roots.csv")
        problems = interlacing(roots[:, 1], job)
        if not np.array_equal(roots[:, 0], np.arange(job["n_modes"] + 1)):
            problems.append("root index column is not 0..N")
        if _load(outcome["out"], "spectrum_curves.csv").shape[0] == 0:
            problems.append("no cotangent curve rows")
        if job["n_modes"] <= DENSE_MAX_N and not problems:
            ref = self.dense(job)
            problems += _worst("roots (relative)", np.abs(roots[:, 1] - ref.omega) / ref.omega,
                               1e-8 + ref.omega_err / ref.omega)
        return problems

    def _amplitude_exact(self, job: dict, outcome: dict) -> list[str]:
        t, re_f, im_f, abs2 = _load(outcome["out"], "amplitude.csv", range(4)).T
        f = re_f + 1j * im_f
        problems = self._grid(job, t)
        problems += _worst("f(0)", abs(f[0] - 1.0), WEIGHT_TOL)
        problems += _worst("unitarity |f|^2 - 1", np.maximum(abs2 - 1.0, 0.0), UNITARITY_TOL)
        problems += _worst("abs2 column", np.abs(abs2 - np.abs(f) ** 2), ROUNDING)
        if job["n_modes"] <= DENSE_MAX_N:
            f_ref, err = self.dense(job).amplitude(t)
            problems += _worst("amplitude vs dense", np.abs(f - f_ref), 1e-8 + err)
        return problems

    def _entropy_exact(self, job: dict, outcome: dict) -> list[str]:
        data = _load(outcome["out"], "entropy.csv")
        problems = self._grid(job, data[:, 0]) + self._pair_invariants("entropy", data, job)
        u = data[:, 3] / job["xi"]
        problems += _worst("unitarity |f|^2 - 1", np.maximum(u - 1.0, 0.0), UNITARITY_TOL)
        problems += self._pair("entropy", data, job, u, ROUNDING)
        if job["n_modes"] <= DENSE_MAX_N:
            f_ref, err = self.dense(job).amplitude(data[:, 0])
            problems += _worst("|f|^2 vs dense", np.abs(u - np.abs(f_ref) ** 2), 1e-8 + 2.0 * err)
        return problems

    def _matrix_dump(self, job: dict, outcome: dict) -> list[str]:
        data = _load(outcome["out"], "transform_matrix.csv")
        n1 = job["n_modes"] + 1
        if data.shape != (n1, n1 + 2):
            return [f"matrix file shape {data.shape}, expected {(n1, n1 + 2)}"]
        omega, t = data[:, 1], data[:, 2:].T
        problems = interlacing(omega, job)
        if np.any(t[0] <= 0.0):
            problems.append("atom row not positive")
        eye = np.eye(n1)
        problems += _worst("column orthonormality", np.abs(t.T @ t - eye).max(), UNITARITY_TOL)
        problems += _worst("row orthonormality", np.abs(t @ t.T - eye).max(), UNITARITY_TOL)
        form = dense_form(job)
        recon = (t * omega**2) @ t.T
        problems += _worst("reconstruction of the form",
                           np.abs(recon - form).max() / np.abs(form).max(), UNITARITY_TOL)
        if job["n_modes"] <= DENSE_MAX_N and not problems:
            ref = self.dense(job)
            problems += _worst("roots vs dense (relative)", np.abs(omega - ref.omega) / ref.omega,
                               1e-8 + ref.omega_err / ref.omega)
            problems += _worst("elements vs dense", np.abs(np.abs(t) - np.abs(ref.vec)),
                               1e-8 + ref.vec_err[None, :])
        return problems

    def _oracle_check(self, job: dict, outcome: dict) -> list[str]:
        rows = [line.split(",") for line in outcome["stdout"].splitlines()[1:] if line]
        if len(rows) < 6:
            return [f"only {len(rows)} cross-check rows printed"]
        return [f"exit 0 but {r[0]} reads {r[3]}" for r in rows if r[3] != "pass"]

    def _amplitude_small(self, job: dict, outcome: dict) -> list[str]:
        t, re_f, im_f, abs2 = _load(outcome["out"], "amplitude.csv", range(4)).T
        problems = self._grid(job, t)
        rows = (self.series_fracs * t.size).astype(int)
        f_ref = small_cavity_series(job, t[rows])
        problems += _worst("series vs direct sum", np.abs(re_f[rows] + 1j * im_f[rows] - f_ref),
                           1e-10)
        problems += _worst("survival floor", np.maximum(survival_floor(job) - abs2, 0.0), 0.0)
        return problems

    def _survival(self, job: dict, outcome: dict) -> list[str]:
        problems = interlacing(outcome["roots"], job)
        values = outcome["values"]
        problems += _worst("sum of weights - 1", abs(float(np.sum(outcome["weights"])) - 1.0),
                           WEIGHT_TOL)
        problems += _worst("|f(0)| - 1", abs(abs(values[0]) - 1.0), WEIGHT_TOL)
        problems += _worst("|f| - 1", np.maximum(np.abs(values) - 1.0, 0.0), WEIGHT_TOL)
        return problems
