"""Command-line front end: config ingestion, CSV/SVG emission.

Subcommands: spectrum, amplitude, impurity, entropy, matrix-dump,
oracle-check.  Exit codes: 0 success, 1 usage, 2 numerical failure,
3 invariant violation.

Every run follows one pair of atoms with the same (omega_bar, g, delta).
The cavity enters only through delta = g R / pi (wave speed c = 1), which
spans both regimes: the small cavity is delta << 1, free space delta ->
infinity.  The keys of a run are the fields of :class:`RunConfig`; each
subcommand takes only the keys it reads (``_COMMANDS``), as flags
(``n_modes`` is ``--n-modes``) and from a flat key=value file ('#'
comments), each read by :func:`_read`, and the flags override the file.
Any other key is refused by :func:`_outside`, a word that is no flag as a
stray argument.  Defaults reproduce the reference impurity figure
(omega_bar=1, g=0.5, delta=0.1, t in [0, 25]).  Each CSV cell is exactly
``format(x, '.17g')`` (:func:`write_csv`), so identical configs give
byte-identical files; the frozen result types check their own invariants.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
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

# Bound on the exact route's unitarity margin, which bounds the row norm's
# deviation at every time: the row-norm tolerance of the single-atom reduced state.
_UNITARITY_TOL = 1e-6


@dataclass
class RunConfig:
    """The keys of one run, each with its default: the reference impurity figure."""

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
        # so is a bad row label: each label becomes its row index here, once
        self.mu, self.nu = (coupling.row_index(v, self.n_modes) for v in (self.mu, self.nu))

    def atom_params(self) -> DressedAtomParams:
        return DressedAtomParams(self.omega_bar, self.g, self.delta, self.n_modes)

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps)

    def superposition(self) -> bipartite.SuperpositionSpec:
        return bipartite.SuperpositionSpec(xi=self.xi, phi=self.phi)


_BOOLS = dict(zip("1 true yes on 0 false no off".split(), [True] * 4 + [False] * 4))
_KINDS = {int: "an integer", float: "a number", bool: "one of 1/true/yes/on or 0/false/no/off"}


def _read(key: str, text: str, where: str):
    """``text`` as the type of ``key``'s default, else refused naming ``key`` and ``where``."""
    kind = type(getattr(RunConfig, key))
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"{where}: {key} must be {_KINDS[kind]}, got {text!r}") from None


def _outside(command: str, key: str) -> str:
    """The refusal of a key ``command`` does not read, from a flag or a file."""
    return f"{command} reads no key {key!r}; its keys are {', '.join(_COMMANDS[command][1])}"


def parse_config_file(path: str, command: str) -> dict:
    """Flat key=value file of ``command``'s keys, each read by :func:`_read`;
    any other key is refused by :func:`_outside`."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _COMMANDS[command][1]:
            raise ValueError(f"{path}:{lineno}: {_outside(command, key)}")
        out[key] = _read(key, value, f"{path}:{lineno}")
    return out


# write_csv's cells per block (temporaries of a few MB), the decimal exponents X
# of its fast path, the product's tie band and 2**27 + 1 (Dekker's split).
_BLOCK, _X_LO, _X_HI, _BAND, _SPLIT = 1 << 13, -280, 280, 2.0 ** -40, 134217729.0


def _pow10(k: int) -> tuple[float, float]:
    """10**k = h + l + O(2**-106 h): h and l correctly rounded from Python integers."""
    n = 10 ** abs(k)
    if k >= 0:
        return float(n), float(n - int(float(n)))
    num, den = (1 / n).as_integer_ratio()  # den = 2**m: dividing by it is exact
    return num / den, math.ldexp((den - num * n) / n, 1 - den.bit_length())


# Per X at X - _X[0] (log10 may miss X by one): 10**(16 - X) = h + l, h's halves, the
# digits before the point, sign and lead (at 2 (X - _X[0]) + sign) and the exponent.
_X = np.arange(_X_LO - 1, _X_HI + 2)
_H, _L = np.array([_pow10(16 - int(x)) for x in _X]).T
_HH = _H * _SPLIT - (_H * _SPLIT - _H)
_HT = _H - _HH
_FIXED = (_X >= -4) & (_X < 17)
_IP = np.where(_FIXED, np.maximum(_X + 1, 0), 1)
_LEAD = np.array([(b"-" * sign + b"0.000"[:n + 1 if n else 0]).rjust(8, b"\0")
                  for n in range(5) for sign in (0, 1)], "S8").view("<u8")
_PREFIX = _LEAD[np.where(_FIXED & (_X < 0), -_X, 0)[:, None] * 2 + [0, 1]].ravel()
# each 4-digit group's ASCII digits (in the low half of a '<u8' word) and trailing zeros
_D = 48 + np.arange(10, dtype=np.uint8)
_DIGITS = np.stack(np.broadcast_arrays(_D[:, None, None, None], _D[:, None, None], _D[:, None],
                                       _D), -1).reshape(10_000, 4)
_GROUP = _DIGITS.view("<u4")[:, 0].astype(np.uint64)
_Z = (_DIGITS == 48).astype(np.int8).T
_ZEROS = _Z[3] * (1 + _Z[2] * (1 + _Z[1] * (1 + _Z[0])))
_EXPONENT = np.zeros((_X.size, 8), np.uint8)  # bytes 2-6: e, sign, 3 digits (2 below 100)
_EXPONENT[:, 2], _EXPONENT[:, 3] = 101, np.where(_X < 0, 45, 43)
_EXPONENT[:, 4:7] = _DIGITS[np.abs(_X), 1:] * (np.abs(_X)[:, None] >= [100, 0, 0])
_EXPONENT = (_EXPONENT * ~_FIXED[:, None]).view("<u8")[:, 0]
# The digit area is three words, digit j at byte 3 + j.  At column 18 a + b, for
# digits a <= j < b: their mask, and the point at byte 3 + a when 0 < a < b.
_J, (_A, _B) = np.arange(24) - 3, np.divmod(np.arange(18 * 18)[:, None], 18)
_MASK = np.where((_J >= _A) & (_J < _B), 255, 0).astype(np.uint8).view("<u8").T
_POINT = np.where((_J == _A) & (_A > 0) & (_B > _A), 46, 0).astype(np.uint8).view("<u8").T
_SLOT = 40  # bytes: sign and lead, the digit area, the exponent and separator


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (x.size, _SLOT) uint8 slots of the float64 cells ``x``, separator
    bytes zero, and the indices of the cells printf formatted (write_csv)."""
    a = np.abs(x)
    x0 = np.floor(np.log10(np.maximum(a, 1e-300)))
    ok = (x0 >= _X_LO) & (x0 <= _X_HI)
    a = np.where(ok, a, 1.0)
    i = np.where(ok, x0, 0).astype(np.int64) - _X[0]
    p = a * _H[i]  # log10 may miss X by one near a power of ten
    i += (p >= 1e17).view(np.int8) - (p < 1e16).view(np.int8)
    p, ah = a * _H[i], a * _SPLIT - (a * _SPLIT - a)
    at = a - ah
    e = at * _HT[i] - (((p - ah * _HH[i]) - at * _HH[i]) - ah * _HT[i])  # a h - p, exactly
    s = e + a * _L[i]
    fs = np.floor(s)
    r = s - fs
    n = p.astype(np.int64) + fs.astype(np.int64)
    q = n + (r > 0.5)
    band = np.where(_L[i] == 0, 0.0, _BAND)  # 10**k is a double: the sum is exact
    ok &= ((np.abs(r - 0.5) > band) & ((n > 10 ** 16) | ((n == 10 ** 16) & (r >= band)))
           & (q < 10 ** 17))
    zero = x == 0
    i = np.where(zero, -_X[0], i)
    q = np.where(zero, 0, q).view(np.uint64)
    # the 17 digits: d0, then four 4-digit groups
    hi = q // 10 ** 8
    lo = q - hi * 10 ** 8
    d0 = hi // 10 ** 8
    hi -= d0 * 10 ** 8
    g1, g3 = hi // 10 ** 4, lo // 10 ** 4
    g2, g4 = hi - g1 * 10 ** 4, lo - g3 * 10 ** 4
    zeros, run = _ZEROS[g4], g4 == 0
    for g in (g3, g2, g1):
        zeros += run * _ZEROS[g]
        run &= g == 0
    area = np.stack([(d0 + 48) << 24 | _GROUP[g1] << 32, _GROUP[g2] | _GROUP[g3] << 32, _GROUP[g4]])
    ip = _IP[i]
    frac = 18 * ip + 17 - zeros  # the digits after the point, up to the last nonzero one
    body = area & _MASK.take(ip, axis=1) | _POINT.take(frac, axis=1)
    frac = area & _MASK.take(frac, axis=1)
    body |= frac << 8  # shifted a byte, past the point
    body[1:] |= frac[:-1] >> 56
    slots = np.column_stack([_PREFIX[2 * i + np.signbit(x)], body.T, _EXPONENT[i]])
    slots = np.ascontiguousarray(slots, "<u8").view(np.uint8)
    slow = np.flatnonzero(~(ok | zero))
    for j in slow:
        slots[j] = np.frombuffer((b"%.17g" % x[j]).ljust(_SLOT, b"\0"), np.uint8)
    return slots, slow


def write_csv(path: Path, header: list[str], table) -> None:
    """Write ``header``, then the rows of the 2-D ``table``: a column of
    strings (ASCII, no NUL) as it is, any other cell as exactly the bytes of
    ``format(float(v), '.17g')``, formed with numpy a block of cells at a
    time.  The file's directory is created if missing.

    A finite cell x, 1e-280 <= |x| < 1e281, is laid out as %g lays out its
    exponent X and digits q = round-half-even(|x| 10**k), k = 16 - X,
    10**16 <= q < 10**17.  With u = 2**-53, 10**k = h + l + d: h and l are
    correctly rounded from integers, |l| <= u h, |d| <= u |l|.  Dekker's
    split gives p = fl(|x| h) and e = |x| h - p exactly (nothing under- or
    overflows in that range) and s = fl(e + fl(|x| l)), so |x| 10**k =
    p + s + E, |E| <= u |e + |x| l| + u |x l| + |x d| <= 4.01 u**2 |x| 10**k
    < 5e-15; E = 0 when l = 0 (10**k is a double, 0 <= k <= 22).  p > 2**53
    is an integer and r = s - floor(s) exact, so q = p + floor(s) + (r > 1/2)
    when |r - 1/2| > 2**-40 > |E| (> 0 when E = 0).  Printf alone prints a
    cell within that band of a tie or above 10**16, with q = 10**17 (a carry:
    at most one double below each power of ten), outside the exponent range
    or not finite.
    """
    table = np.asarray(table)
    text = np.array([isinstance(v, str) for v in table[:1].ravel()], bool)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    step = max(1, _BLOCK // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, len(table), step):
            block = table[i:i + step]
            cells = _cells(block[:, ~text].astype(np.float64).ravel())[0].reshape(
                len(block), -1, _SLOT)
            if text.any():  # strings left-aligned in slots wide enough for the longest
                words = block[:, text].astype(bytes)
                slots = np.zeros(block.shape + (max(_SLOT, words.itemsize + 1),), np.uint8)
                slots[:, ~text, :_SLOT] = cells
                slots[:, text, :words.itemsize] = words.view(np.uint8).reshape(*words.shape, -1)
                cells = slots
            cells[:, :, -1] = ord(",")
            cells[:, -1, -1] = ord("\n")
            fh.write(cells[cells != 0].tobytes())  # each cell's zero bytes dropped


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _route(cfg: RunConfig, regime: str, mu: int, nu: int,
           entropy: bool = False) -> tuple[dynamics.AmplitudeTrace, float | None]:
    """The checked trace of f_mu_nu over the run's times by ``regime``'s route
    and, with ``entropy``, a bound on the single-atom entropy's drift
    |E(t) - H(1 - xi, xi)| over every t (None without).

    "exact": rows mu and nu of t, formed on demand (O(N) memory, no cap), f_mu_nu
    from one vector phase sum, and unitarity from row mu's static margin m,
    which bounds the row norm's deviation at every time.  The drift bound
    (:func:`bipartite.entropy_drift_bound`) takes m plus the row norms'
    rounding, which :func:`dynamics.row_norm_rounding` bounds from the row, m
    and the column bounds, so it holds for the exact E(t) and for E(t) as the
    time-domain route evaluates it; it must be at most 1e-8.  "free-space":
    the closed form, whose record checks omega_bar > g and the continuum
    weight (:class:`dynamics.FreeSpaceParams`); drift 0.  "small": the series.
    """
    params, times = cfg.atom_params(), cfg.time_grid()
    if regime == "exact":
        tm = coupling.build_matrix(solve_eigenfrequencies(params))
        margin = tm.unitarity_margin(mu)
        require(margin <= _UNITARITY_TOL, InvariantViolation,
                "unitarity margin {:.3e} of row {} exceeds {}", margin, mu, _UNITARITY_TOL)
        drift = None
        if entropy:
            drift = bipartite.entropy_drift_bound(
                cfg.xi, margin + dynamics.row_norm_rounding(tm, mu, margin))
            require(drift <= 1e-8, InvariantViolation,
                    "entropy drift bound {:.3e} exceeds 1e-8", drift)
        return dynamics.amplitude_trace(tm, mu, nu, times), drift
    if mu or nu:
        raise ValueError(f"regime {regime!r} provides only the atom-atom amplitude")
    if regime == "small":
        return dynamics.small_cavity_trace(params, times, cfg.k_max), None
    p = dynamics.FreeSpaceParams(omega_bar=params.omega_bar, g=params.g)
    return dynamics.free_space_trace(p, times), 0.0


def _write_pair(cfg: RunConfig, path: Path, trace) -> np.ndarray:
    """Write the bipartite CSV of two atoms that share the survival amplitude
    ``trace``, with the constant entropy E = H(1 - xi, xi) that the route's
    drift bound certifies; returns its D column.  The pair matrix checks its
    own invariants at every time."""
    m = bipartite.reduced_pair_matrix(trace.values, trace.values, cfg.superposition(),
                                      trace.times)
    d = bipartite.impurity(m)
    e = np.full(trace.times.shape, bipartite.entanglement_entropy(cfg.xi))
    write_csv(path, ["t", "rho00", "rho0101", "rho1010", "re_coh", "im_coh", "D", "E"],
              np.column_stack([m.time, m.p_ground, m.p_b_excited, m.p_a_excited,
                               m.coherence.real, m.coherence.imag, d, e]))
    return d


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    """Write the eigenfrequency condition's two sides and its roots (CSV, optional SVG)."""
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
            [("cot(R Omega)", oms, lhs, False),
             ("frequency condition", oms, rhs, True)],
            title="Eigenfrequency condition",
            xlabel="Omega", ylabel="both sides", y_clip=(-clip, clip), markers=marks)
        (out / "spectrum.svg").write_text(svg)
    print(f"wrote {out / 'spectrum_curves.csv'} and {out / 'spectrum_roots.csv'}")
    return EXIT_OK


def cmd_amplitude(cfg: RunConfig) -> int:
    """Write f_mu_nu(t) by the run's regime (CSV, optional SVG)."""
    trace, _ = _route(cfg, cfg.regime, cfg.mu, cfg.nu)
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
    """Write the pair state and impurity D(t), small cavity (exact) and free space."""
    times = cfg.time_grid()
    out = Path(cfg.out)
    # reference figure: small cavity via the exact discrete route, plus free space
    small_path, free_path = out / "impurity_small_cavity.csv", out / "impurity_free_space.csv"
    d_small = _write_pair(cfg, small_path, _route(cfg, "exact", 0, 0, entropy=True)[0])
    d_free = _write_pair(cfg, free_path, _route(cfg, "free-space", 0, 0)[0])
    if cfg.svg:
        svg = svgplot.line_plot(
            [("small cavity", times, d_small, True), ("free space", times, d_free, False)],
            title="Degree of impurity", xlabel="t", ylabel="D")
        (out / "impurity.svg").write_text(svg)
    print(f"wrote {small_path} and {free_path}")
    return EXIT_OK


def cmd_entropy(cfg: RunConfig) -> int:
    """Write the pair state with its constant entropy and print the drift bound."""
    out = Path(cfg.out)
    # a small cavity takes the exact route, which bounds the entropy's drift
    regime = "free-space" if cfg.regime == "free-space" else "exact"
    trace, drift = _route(cfg, regime, 0, 0, entropy=True)
    path = out / "entropy.csv"
    _write_pair(cfg, path, trace)
    analytic = bipartite.entanglement_entropy(cfg.xi)
    print(f"wrote {path}")
    print(f"entropy_analytic={analytic:.17g} max_deviation={drift:.3e}")
    if cfg.svg:
        svg = svgplot.line_plot([("E(t)", trace.times, np.full(trace.times.shape, analytic),
                                  False)],
                                title=f"Entanglement entropy, xi={cfg.xi:g}",
                                xlabel="t", ylabel="E")
        (out / "entropy.svg").write_text(svg)
    return EXIT_OK


def cmd_matrix_dump(cfg: RunConfig) -> int:
    """Write the dense transform t, one normal mode per line."""
    params = cfg.atom_params()
    tm = coupling.build_matrix(solve_eigenfrequencies(params))
    out = Path(cfg.out)
    header = ["r", "Omega_r", "t_atom_r"] + [f"t_{k}_r" for k in range(1, params.n_modes + 1)]
    path = out / "transform_matrix.csv"
    write_csv(path, header,
              np.column_stack([np.arange(params.n_modes + 1), tm.spectrum.bigomegas, tm.t.T]))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig) -> int:
    """Print the cross-checks against the oracle; exit 2 if any fails."""
    checks = oracle.run_cross_checks(cfg.atom_params())
    print("check,max_err,tol,status")
    for row in checks:
        print(f"{row.name},{row.max_err:.6e},{row.tol:.1e},{row.status}")
    if not all(row.passed for row in checks):
        return EXIT_NUMERICAL
    return EXIT_OK


# Each subcommand and the keys it reads; all take the system and --out (oracle-check writes none).
_COMMON = ("omega_bar", "g", "delta", "n_modes", "out")
_COMMANDS = {
    "spectrum": (cmd_spectrum, _COMMON + ("svg",)),
    "amplitude": (cmd_amplitude, _COMMON + ("regime", "t_max", "steps", "k_max", "mu", "nu",
                                            "svg")),
    "impurity": (cmd_impurity, _COMMON + ("xi", "phi", "t_max", "steps", "svg")),
    "entropy": (cmd_entropy, _COMMON + ("xi", "phi", "regime", "t_max", "steps", "svg")),
    "matrix-dump": (cmd_matrix_dump, _COMMON),
    "oracle-check": (cmd_oracle_check, _COMMON),
}
# The flags that take a value: --config and every key's but a boolean's.
_VALUE_FLAGS = {"--config"} | {"--" + key.replace("_", "-") for key, value in
                               vars(RunConfig()).items() if type(value) is not bool}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it splits argv into each key's text."""
    parser = argparse.ArgumentParser(prog="dressed-cavity",
                                     description="Dressed atoms in a reflecting spherical cavity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        command = sub.add_parser(name, allow_abbrev=False)  # one spelling per flag
        command.add_argument("--config", help="flat key=value config file")
        for flag in ("--" + key.replace("_", "-") for key in keys):
            store = {} if flag in _VALUE_FLAGS else {"action": "store_const", "const": "yes"}
            command.add_argument(flag, **store)
    return parser


def config_from_args(args: argparse.Namespace, rest=()) -> RunConfig:
    """Defaults, then config file, then flags; ``rest``, words the parser left, is refused."""
    # every flag the parser defines but --config is a RunConfig field; unset ones are None
    flags = {key: _read(key, text, "--" + key.replace("_", "-")) for key, text in vars(args).items()
             if key not in ("command", "config") and text is not None}
    if rest and not rest[0].startswith("--"):  # a value without its flag, or a bare word
        raise ValueError(f"{args.command}: stray argument {rest[0]!r}")
    if rest:  # named by its key, as a file line names it: --t-max=2 is t_max
        raise ValueError(_outside(args.command,
                                  rest[0].split("=", 1)[0].removeprefix("--").replace("-", "_")))
    file = parse_config_file(args.config, args.command) if args.config else {}
    cfg = RunConfig(**(file | flags))
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    """Run one subcommand from ``argv`` and return its exit code (EXIT_*)."""
    words, argv = iter(sys.argv[1:] if argv is None else argv), []
    for word in words:  # after the command, a value flag takes the next word: -1e-3 too
        value = next(words, None) if argv and word in _VALUE_FLAGS else None
        argv.append(word if value is None else f"{word}={value}")
    try:
        args, rest = build_parser().parse_known_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after -h
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command][0](config_from_args(args, rest))
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
