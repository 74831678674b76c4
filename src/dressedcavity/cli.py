"""Command-line front end: config ingestion, CSV/SVG emission.

Subcommands: spectrum, amplitude, impurity, entropy, matrix-dump,
oracle-check.  Exit codes: 0 success, 1 usage, 2 numerical failure,
3 invariant violation.

Every run follows one pair of atoms with the same (omega_bar, g, delta).
The cavity enters only through delta = g R / pi (wave speed c = 1), which
spans both regimes: the small cavity is delta << 1, free space delta ->
infinity.  The keys of a run are the fields of :class:`RunConfig`: the
parser makes a flag of each (``n_modes`` is ``--n-modes``) and a flat
key=value file ('#' comments) sets them, both typed by the field's
default, and the flags override the file.  Defaults reproduce the
reference impurity figure (omega_bar=1, g=0.5, delta=0.1, t in [0, 25]).  All CSV output uses a
header row and 17 significant digits, so identical configs give
byte-identical files; the frozen result types check their own invariants.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bipartite, coupling, dynamics, oracle, svgplot
from .errors import InvariantViolation, SimulationError, require
from .spectrum import DressedAtomParams, solve_eigenfrequencies, cotangent_curves

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3

_REGIMES = ("small", "free-space", "exact")


@dataclass
class RunConfig:
    omega_bar: float = 1.0
    g: float = 0.5
    delta: float = 0.1
    n_modes: int = 200
    xi: float = 0.5
    phi: float = 0.0
    regime: str = "small"
    t_max: float = 25.0
    steps: int = 501
    k_max: int = 10_000
    mu: str = "atom"
    nu: str = "atom"
    out: str = "."
    svg: bool = False

    def validate(self):
        if not 0.0 < self.t_max < np.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        self.superposition()  # a bad xi or phi is a usage error before any work

    def atom_params(self) -> DressedAtomParams:
        return DressedAtomParams.from_delta(self.omega_bar, self.g, self.delta,
                                            n_modes=self.n_modes)

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps)

    def superposition(self) -> bipartite.SuperpositionSpec:
        return bipartite.SuperpositionSpec(xi=self.xi, phi=self.phi)


# How a config value is read, by the type of its field's default.
_READ = {bool: lambda v: v.lower() in ("1", "true", "yes", "on")}
_READERS = {f.name: _READ.get(type(f.default), type(f.default)) for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """Flat key=value file; each value takes the type of its :class:`RunConfig`
    default, and unknown keys are usage errors."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _READERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _READERS[key](value)
    return out


# Values formatted per printf call: bounds the template and tuple of a block.
_CSV_BLOCK = 1 << 16


def write_csv(path: Path, header: list[str], table) -> None:
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


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _route(cfg: RunConfig, params, regime: str,
           mu, nu) -> tuple[dynamics.AmplitudeTrace, np.ndarray | None]:
    """The checked trace of f_mu_nu over the run's times by ``regime``'s route,
    and the single-atom entropy at each time (None for "small": no whole row).

    "exact": row mu of the dense transform's amplitudes, whose norm (unitarity)
    the single-atom reduced state checks.  "free-space": the closed form, once
    omega_bar > g (before the residues divide by kappa) and the continuum
    weight (4g/pi) integral of h is 1; constant entropy.  "small": the series.
    """
    times = cfg.time_grid()
    if regime == "exact":
        row = dynamics.amplitude_row(coupling.build_matrix(solve_eigenfrequencies(params)),
                                     mu, times)
        trace = dynamics.AmplitudeTrace(
            times=times, values=row[:, dynamics._row_index(nu, params.n_modes)],
            mu=mu, nu=nu, method="discrete-sum")
        reduced = bipartite.single_atom_reduced(row, cfg.superposition(), times)
        return trace, bipartite.von_neumann_entropy(reduced)
    if dynamics._row_index(mu, params.n_modes) or dynamics._row_index(nu, params.n_modes):
        raise ValueError(f"regime {regime!r} provides only the atom-atom amplitude")
    if regime == "small":
        return dynamics.small_cavity_trace(params, times, cfg.k_max), None
    p = dynamics.FreeSpaceParams(omega_bar=params.omega_bar, g=params.g)
    s = dynamics.spectral_weight_norm(params.omega_bar, params.g)
    require(abs(s - 1.0) <= 1e-6, InvariantViolation,
            "continuum unitarity weight {:.9f} deviates from 1", s)
    return (dynamics.free_space_trace(p, times),
            np.full(times.shape, bipartite.entanglement_entropy(cfg.xi)))


def _write_pair(cfg: RunConfig, path: Path, trace, entropies) -> np.ndarray:
    """Write the bipartite CSV of two atoms that share the survival amplitude
    ``trace``; returns its D column.  The pair matrix checks its own
    invariants at every time."""
    m = bipartite.reduced_pair_matrix(trace.values, trace.values, cfg.superposition(),
                                      trace.times)
    d = bipartite.impurity(m)
    write_csv(path, ["t", "rho00", "rho0101", "rho1010", "re_coh", "im_coh", "D", "E"],
              np.column_stack([m.time, m.p_ground, m.p_b_excited, m.p_a_excited,
                               m.coherence.real, m.coherence.imag, d, entropies]))
    return d


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    params = cfg.atom_params()
    spec = solve_eigenfrequencies(params)
    out = Path(cfg.out)

    # cotangent curve and its straight companion, sampled between asymptotes
    n_plot = min(params.n_modes, 8)
    dw = params.delta_omega
    k = np.arange(n_plot + 1)
    oms = np.linspace(k * dw + 0.02 * dw, (k + 1) * dw - 0.02 * dw, 80, axis=-1).ravel()
    lhs, rhs = cotangent_curves(oms, params)
    write_csv(out / "spectrum_curves.csv", ["Omega", "x", "cot_lhs", "rhs_line"],
              np.column_stack([oms, params.radius * oms, lhs, rhs]))

    roots = spec.bigomegas
    write_csv(out / "spectrum_roots.csv", ["r", "Omega_r", "x_r", "newton_rel"],
              np.column_stack([np.arange(roots.size), roots, params.radius * roots,
                               spec.newton_rel]))

    if cfg.svg:
        clip = float(np.percentile(np.abs(rhs), 95)) * 2 + 10
        marked = roots[: n_plot + 1]
        marks = list(zip(marked, cotangent_curves(marked, params)[0]))
        svg = svgplot.line_plot(
            [("cot(R Omega / c)", oms, lhs, False),
             ("frequency condition", oms, rhs, True)],
            title="Eigenfrequency condition",
            xlabel="Omega", ylabel="both sides", y_clip=(-clip, clip), markers=marks)
        (out / "spectrum.svg").write_text(svg)
    print(f"wrote {out / 'spectrum_curves.csv'} and {out / 'spectrum_roots.csv'}")
    return EXIT_OK


def cmd_amplitude(cfg: RunConfig) -> int:
    mu, nu = (label if label == "atom" else int(label) for label in (cfg.mu, cfg.nu))
    trace, _ = _route(cfg, cfg.atom_params(), cfg.regime, mu, nu)
    out = Path(cfg.out)
    v = trace.values
    abs2 = np.hypot(v.real, v.imag) ** 2  # scalar abs: numpy's array abs may differ by an ulp
    method = np.full(v.size, trace.method, dtype=object)
    path = out / "amplitude.csv"
    write_csv(path, ["t", "re_f", "im_f", "abs2_f", "method"],
              np.column_stack([trace.times, v.real, v.imag, abs2, method]))
    if cfg.svg:
        svg = svgplot.line_plot(
            [("|f|^2", trace.times, abs2, False)],
            title=f"Amplitude ({trace.method})", xlabel="t", ylabel="|f|^2")
        (out / "amplitude.svg").write_text(svg)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_impurity(cfg: RunConfig) -> int:
    params, times = cfg.atom_params(), cfg.time_grid()
    out = Path(cfg.out)
    # reference figure: small cavity via the exact discrete route, plus free space
    small_path, free_path = out / "impurity_small_cavity.csv", out / "impurity_free_space.csv"
    d_small = _write_pair(cfg, small_path, *_route(cfg, params, "exact", "atom", "atom"))
    d_free = _write_pair(cfg, free_path, *_route(cfg, params, "free-space", "atom", "atom"))
    if cfg.svg:
        svg = svgplot.line_plot(
            [("small cavity", times, d_small, True), ("free space", times, d_free, False)],
            title="Degree of impurity", xlabel="t", ylabel="D")
        (out / "impurity.svg").write_text(svg)
    print(f"wrote {small_path} and {free_path}")
    return EXIT_OK


def cmd_entropy(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    # the entropy needs the whole amplitude row: a small cavity takes the exact route
    regime = "free-space" if cfg.regime == "free-space" else "exact"
    trace, entropies = _route(cfg, cfg.atom_params(), regime, "atom", "atom")
    path = out / "entropy.csv"
    _write_pair(cfg, path, trace, entropies)
    analytic = bipartite.entanglement_entropy(cfg.xi)
    drift = np.abs(entropies - analytic)
    deviation = float(np.max(drift))
    print(f"wrote {path}")
    print(f"entropy_analytic={analytic:.17g} max_deviation={deviation:.3e}")
    if cfg.svg:
        svg = svgplot.line_plot([("E(t)", trace.times, entropies, False)],
                                title=f"Entanglement entropy, xi={cfg.xi:g}",
                                xlabel="t", ylabel="E")
        (out / "entropy.svg").write_text(svg)
    require(drift <= 1e-8, InvariantViolation, "entropy deviation {:.3e} exceeds 1e-8", drift,
            t=trace.times)
    return EXIT_OK


def cmd_matrix_dump(cfg: RunConfig) -> int:
    params = cfg.atom_params()
    tm = coupling.build_matrix(solve_eigenfrequencies(params))
    out = Path(cfg.out)
    header = ["r", "Omega_r", "t_atom_r"] + [f"t_{k}_r" for k in range(1, params.n_modes + 1)]
    path = out / "transform_matrix.csv"
    write_csv(path, header,
              np.column_stack([np.arange(params.n_modes + 1), tm.bigomegas, tm.t.T]))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig) -> int:
    params = cfg.atom_params()
    checks = oracle.run_cross_checks(params)
    print("check,max_err,tol,status")
    for row in checks:
        print(f"{row.name},{row.max_err:.6e},{row.tol:.1e},{row.status}")
    if not all(row.passed for row in checks):
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "amplitude": cmd_amplitude,
    "impurity": cmd_impurity,
    "entropy": cmd_entropy,
    "matrix-dump": cmd_matrix_dump,
    "oracle-check": cmd_oracle_check,
}


class _Parser(argparse.ArgumentParser):
    # usage failures must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; all subcommands share one flag set."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="flat key=value config file")
    for name, read in _READERS.items():
        flag = "--" + name.replace("_", "-")
        if read is _READ[bool]:
            flags.add_argument(flag, action="store_true", default=None)
        else:
            flags.add_argument(flag, type=read, choices=_REGIMES if name == "regime" else None)
    parser = _Parser(prog="dressed-cavity",
                     description="Dressed atoms in a reflecting spherical cavity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[flags])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The defaults, then the config file, then the flags, each layer over the last."""
    # every flag the parser defines but --config is a RunConfig field; unset ones are None
    flags = {name: value for name, value in vars(args).items()
             if name not in ("command", "config") and value is not None}
    cfg = RunConfig(**{**(parse_config_file(args.config) if args.config else {}), **flags})
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except SimulationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
