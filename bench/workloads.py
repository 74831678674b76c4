"""Seeded job decks for the three benchmark workloads, and job execution.

A job is a plain dict: ``kind`` names what runs, the physical parameters the
output checks need sit beside it, and CLI jobs carry the ``argv`` handed to
``dressedcavity.cli.main``.  The program only ever sees that argv (or, for
``large_n``, the library arguments); the checks read the parameters.

A run plays a fixed deck of jobs, so the same seed always gives the same
jobs, the same number of them and the same failures.  Each job kind's
parameters form a stratified design: the coordinate that sets a job's cost
(N, or k_max for the small-cavity series) sits at the centres of equal
strata of its log range, and every other coordinate is a seeded Latin
hypercube column.  Every deck therefore spans the whole domain, edges
included, with the same cost mix, and the seed picks where in each stratum
the other parameters fall and how they pair up.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

OMEGA_BAR = 1.0
DELTA_RANGE = (1e-3, 1e3)       # log-uniform
G_RANGE = (0.02, 0.9)           # uniform, in units of omega_bar
SMALL_DELTA_MAX = 0.2           # the small-cavity series' own regime gate
LARGE_N_STEPS = 201             # one 201 x (N+1) complex block stays < 1 GB at N = 1e5

# Per sweep cycle: how many jobs of each kind.  A deck holds whole cycles.
SWEEP_CYCLE = {
    "spectrum": 3,
    "amplitude-exact": 2,
    "entropy-exact": 2,
    "matrix-dump": 2,
    "oracle-check": 2,
    "amplitude-small": 1,
}

# Mean untraced seconds of one job (a whole cycle for sweep) on a 2-vCPU VM;
# they only size a deck so that it takes about the seconds asked.
NOMINAL_S = {"figure": 1.0, "sweep": 2.4, "large_n": 0.6}

# Modules each workload must and must never reach; the traced run checks it.
LAYERS = {
    "figure": {"reach": ["spectrum.solve", "coupling.build_matrix", "dynamics.discrete",
                         "dynamics.free_space", "bipartite", "cli.write_csv", "svgplot"],
               "never": ["oracle.diagonalize", "dynamics.survival", "dynamics.small_cavity"]},
    "sweep": {"reach": ["spectrum.solve", "coupling.build_matrix", "dynamics.discrete",
                        "dynamics.small_cavity", "oracle.diagonalize", "cli.write_csv"],
              "never": ["dynamics.free_space", "dynamics.survival", "svgplot"]},
    "large_n": {"reach": ["spectrum.solve", "coupling.atom_weights", "dynamics.survival"],
                "never": ["coupling.build_matrix", "dynamics.free_space", "bipartite",
                          "oracle.diagonalize", "cli", "svgplot"]},
}

WORKLOADS = tuple(LAYERS)


def _design(rng: np.random.Generator, k: int, dims: int) -> np.ndarray:
    """k points in [0, 1)^dims: column 0 at the centres of k equal strata,
    each other column a seeded Latin hypercube column, in seeded order."""
    u = np.empty((k, dims))
    u[:, 0] = (np.arange(k) + 0.5) / k
    for d in range(1, dims):
        u[:, d] = (rng.permutation(k) + rng.random(k)) / k
    return u[rng.permutation(k)]


def _log_between(u: float, lo: float, hi: float) -> float:
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _log_int(u: float, lo: int, hi: int) -> int:
    return int(round(_log_between(u, lo, hi)))


def _cli_job(kind: str, command: list[str], **params) -> dict:
    job = {"kind": kind, "omega_bar": OMEGA_BAR, "g": 0.5, "delta": 0.1, "n_modes": 200,
           "xi": 0.5, "phi": 0.0, "t_max": 25.0, "steps": 501, "k_max": 10_000}
    job.update(params)
    argv = list(command)
    for key in ("g", "delta", "n_modes", "xi", "phi", "k_max", "t_max", "steps"):
        if key in params:
            argv += ["--" + key.replace("_", "-"), repr(params[key])]
    job["argv"] = argv
    return job


def figure_deck(seed: int, size: int) -> list[dict]:
    """The reference impurity figure at the defaults; the seed picks xi and phi only."""
    return [_cli_job("impurity", ["impurity", "--svg"], xi=float(0.05 + 0.9 * u_xi),
                     phi=float(2.0 * math.pi * u_phi))
            for _, u_xi, u_phi in _design(np.random.default_rng([seed, 0]), size, 3)]


def _sweep_kind(kind: str, u: np.ndarray, rng: np.random.Generator) -> dict:
    delta = _log_between(u[1], *DELTA_RANGE)
    g = float(G_RANGE[0] + u[2] * (G_RANGE[1] - G_RANGE[0]))
    if kind == "spectrum":
        return _cli_job(kind, ["spectrum"], g=g, delta=delta, n_modes=_log_int(u[0], 8, 8192))
    if kind == "amplitude-exact":
        return _cli_job(kind, ["amplitude", "--regime", "exact"], g=g, delta=delta,
                        n_modes=_log_int(u[0], 8, 2048))
    if kind == "entropy-exact":
        return _cli_job(kind, ["entropy", "--regime", "exact"], g=g, delta=delta,
                        n_modes=_log_int(u[0], 8, 2048), xi=float(rng.uniform(0.05, 0.95)))
    if kind == "matrix-dump":
        return _cli_job(kind, ["matrix-dump"], g=g, delta=delta, n_modes=_log_int(u[0], 8, 600))
    if kind == "oracle-check":
        return _cli_job(kind, ["oracle-check"], g=g, delta=delta, n_modes=_log_int(u[0], 8, 100))
    if kind == "amplitude-small":
        return _cli_job(kind, ["amplitude", "--regime", "small"], g=g,
                        delta=_log_between(u[1], DELTA_RANGE[0], SMALL_DELTA_MAX),
                        k_max=_log_int(u[0], 1000, 100_000))
    raise ValueError(f"unknown sweep kind {kind!r}")


def sweep_deck(seed: int, cycles: int) -> list[dict]:
    """CLI jobs over delta in [1e-3, 1e3] and g in [0.02, 0.9], mixed per SWEEP_CYCLE."""
    rng = np.random.default_rng([seed, 1])
    deck = []
    for i, (kind, count) in enumerate(SWEEP_CYCLE.items()):
        for u in _design(np.random.default_rng([seed, 2, i]), count * cycles, 3):
            deck.append(_sweep_kind(kind, u, rng))
    return [deck[i] for i in rng.permutation(len(deck))]


def large_n_deck(seed: int, size: int) -> list[dict]:
    """Closed-route solve, atom weights and survival trace for N in [4096, 1e5]."""
    return [{"kind": "survival", "omega_bar": OMEGA_BAR,
             "n_modes": _log_int(u[0], 4096, 100_000),
             "delta": _log_between(u[1], *DELTA_RANGE),
             "g": float(G_RANGE[0] + u[2] * (G_RANGE[1] - G_RANGE[0])),
             "t_max": float(5.0 + 45.0 * u[3]), "steps": LARGE_N_STEPS}
            for u in _design(np.random.default_rng([seed, 3]), size, 4)]


def tiny_jobs(workload: str) -> list[dict]:
    """One small job per kind: warm-up, set-up probe and self-test input."""
    if workload == "figure":
        return [_cli_job("impurity", ["impurity", "--svg"], n_modes=20, steps=41, t_max=10.0,
                         xi=0.3, phi=0.7)]
    if workload == "sweep":
        u = np.array([0.0, 0.5, 0.5])
        return [_sweep_kind(kind, u, np.random.default_rng(0)) for kind in SWEEP_CYCLE]
    if workload == "large_n":
        return [{"kind": "survival", "omega_bar": OMEGA_BAR, "n_modes": 4096, "delta": 1.0,
                 "g": 0.3, "t_max": 10.0, "steps": 21}]
    raise ValueError(f"unknown workload {workload!r}")


def deck(workload: str, seed: int, seconds: float) -> list[dict]:
    """The seeded deck of one run, about ``seconds`` long at the nominal costs."""
    size = max(1, round(seconds / NOMINAL_S[workload]))
    return {"figure": figure_deck, "sweep": sweep_deck, "large_n": large_n_deck}[workload](
        seed, size)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute(dc, job: dict, out_dir: str) -> dict:
    """Run one job through the package's public entry points.

    ``dc`` is the imported ``dressedcavity`` package.  Returns the raw
    outcome: the CLI exit code and captured output, or the library results.
    The package's own failures are returned, anything else propagates.
    """
    if "argv" in job:
        argv = job["argv"] + ["--out", out_dir]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = dc.cli.main(argv)
        return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "out": out_dir}
    params = dc.DressedAtomParams.from_delta(job["omega_bar"], job["g"], job["delta"],
                                             n_modes=job["n_modes"])
    try:
        spec = dc.solve_eigenfrequencies(params)
        weights = dc.atom_weights(spec)
        trace = dc.survival_trace(spec, np.linspace(0.0, job["t_max"], job["steps"]), weights)
    except dc.SimulationError as exc:
        return {"rc": None, "error": f"{type(exc).__name__}: {exc}"}
    return {"rc": 0, "roots": spec.bigomegas, "weights": weights, "values": trace.values}
