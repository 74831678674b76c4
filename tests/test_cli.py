import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dressedcavity import bipartite, cli, coupling, dynamics
from dressedcavity.spectrum import solve_eigenfrequencies
from dressedcavity.cli import (
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    build_parser,
    main,
    parse_config_file,
    write_csv,
)


def run(*argv):
    return main(list(argv))


class TestConfigFile:
    def test_parses_types_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference parameters\n"
            "omega_bar = 1.0\n"
            "g=0.5\n"
            "n_modes = 64   # truncation\n"
            "svg = true\n"
            "regime = exact\n"
            "delta = 3\n"
            "steps = 11\n"
            "k_max = 500\n"
            "mu = 2\n"
        )
        vals = parse_config_file(str(cfg))
        assert vals == {"omega_bar": 1.0, "g": 0.5, "n_modes": 64,
                        "svg": True, "regime": "exact", "delta": 3.0,
                        "steps": 11, "k_max": 500, "mu": "2"}
        assert [type(vals[k]) for k in ("delta", "steps", "k_max", "mu")] == [
            float, int, int, str]

    def test_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coupling = 0.5\n")
        with pytest.raises(ValueError):
            parse_config_file(str(cfg))

    def test_second_atom_key_is_a_usage_error(self, tmp_path):
        # both atoms share one (omega_bar, g, delta): there is no second-atom key
        cfg = tmp_path / "run.cfg"
        cfg.write_text("identical = false\n")
        assert run("spectrum", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE

    @pytest.mark.parametrize("key", ["radius", "c"])
    def test_delta_is_the_only_cavity_input(self, tmp_path, key):
        # delta = g R / pi with c = 1 states the cavity: no radius or wave-speed key
        assert run("spectrum", f"--{key}", "2.0", "--n-modes", "4",
                   "--out", str(tmp_path)) == EXIT_USAGE
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2.0\nn_modes = 4\n")
        assert run("spectrum", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE
        assert not (tmp_path / "spectrum_roots.csv").exists()


class TestExitCodes:
    def test_usage_unknown_flag(self, capsys):
        assert run("impurity", "--no-such-flag") == EXIT_USAGE

    def test_usage_bad_regime(self, tmp_path):
        assert run("amplitude", "--regime", "medium", "--out", str(tmp_path)) == EXIT_USAGE

    def test_usage_bad_steps(self, tmp_path):
        assert run("impurity", "--steps", "1", "--out", str(tmp_path)) == EXIT_USAGE

    def test_usage_bad_xi(self, tmp_path):
        assert run("entropy", "--xi", "1.5", "--steps", "5",
                   "--n-modes", "16", "--out", str(tmp_path)) == EXIT_USAGE

    def test_usage_bad_mode_count(self, tmp_path):
        assert run("spectrum", "--n-modes", "0", "--out", str(tmp_path)) == EXIT_USAGE

    def test_usage_free_space_needs_atom_labels(self, tmp_path):
        assert run("amplitude", "--regime", "free-space", "--mu", "2",
                   "--out", str(tmp_path)) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("amplitude", "--regime", "free-space", "--t-max", "nan"),
        ("amplitude", "--regime", "free-space", "--t-max", "inf"),
        ("impurity", "--phi", "nan"),
        ("spectrum", "--omega-bar", "inf"),
        ("spectrum", "--delta", "inf"),
        ("spectrum", "--c", "inf"),
        # finite, but omega_bar^2 or dw^4 = (g / delta)^4 overflows
        ("spectrum", "--omega-bar", "1e200"),
        ("spectrum", "--delta", "1e-3", "--g", "1e150"),
    ], ids=["t-max-nan", "t-max-inf", "phi-nan", "omega-bar-inf", "delta-inf", "c-inf",
            "omega-bar-sq-overflow", "dw-fourth-overflow"])
    def test_usage_non_finite_input(self, tmp_path, argv):
        assert run(*argv, "--steps", "5", "--n-modes", "8", "--out", str(tmp_path)) == EXIT_USAGE

    def test_bad_xi_exits_before_the_solve(self, tmp_path, monkeypatch):
        def solve(params):
            raise AssertionError("solved before the superposition was checked")

        monkeypatch.setattr(cli, "solve_eigenfrequencies", solve)
        assert run("entropy", "--regime", "exact", "--xi", "1.5", "--n-modes", "2000",
                   "--out", str(tmp_path)) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["spectrum", "matrix-dump", "oracle-check"])
    @pytest.mark.parametrize("flag, value", [("--xi", "1.5"), ("--phi", "nan")])
    def test_usage_bad_superposition_for_every_command(self, tmp_path, command, flag, value):
        # the superposition is checked with the rest of the run's keys, also by
        # the commands that never read it
        assert run(command, flag, value, "--n-modes", "8", "--out", str(tmp_path)) == EXIT_USAGE

    def test_numerical_failure_on_nan_residuals(self, tmp_path, capsys):
        # at R = pi delta / g = 1e300 every newton_rel is NaN, which fails the solver's check
        with np.errstate(all="ignore"):
            rc = run("spectrum", "--delta", "1.5915494309189535e299", "--n-modes", "8",
                     "--out", str(tmp_path))
        assert rc == EXIT_NUMERICAL
        assert "root 0 residual nan" in capsys.readouterr().err
        assert not (tmp_path / "spectrum_roots.csv").exists()

    def test_numerical_failure_outside_small_cavity_regime(self, tmp_path):
        rc = run("amplitude", "--regime", "small", "--delta", "0.5",
                 "--steps", "5", "--out", str(tmp_path))
        assert rc == EXIT_NUMERICAL


class TestSpectrumCommand:
    def test_writes_curves_and_roots(self, tmp_path):
        rc = run("spectrum", "--n-modes", "6", "--svg", "--out", str(tmp_path))
        assert rc == EXIT_OK
        curves = (tmp_path / "spectrum_curves.csv").read_text().splitlines()
        assert curves[0] == "Omega,x,cot_lhs,rhs_line"
        roots = (tmp_path / "spectrum_roots.csv").read_text().splitlines()
        assert roots[0] == "r,Omega_r,x_r,newton_rel"
        assert len(roots) == 8  # header + 7 roots
        svg = (tmp_path / "spectrum.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_residual_column_matches_scalar_residual(self, tmp_path):
        # the newton_rel column is the spectrum's own newton_rel, bit for bit,
        # and stays within the solver's 1e-10 bound
        rc = run("spectrum", "--n-modes", "3000", "--out", str(tmp_path))
        assert rc == EXIT_OK
        spec = solve_eigenfrequencies(RunConfig(n_modes=3000).atom_params())
        rows = np.loadtxt(tmp_path / "spectrum_roots.csv", delimiter=",", skiprows=1)
        assert rows[:, 3].tolist() == spec.newton_rel.tolist()
        assert rows[:, 3].max() <= 1e-10

    def test_small_cavity_roots_hug_asymptotes(self, tmp_path):
        # for delta << 1 every intersection beyond the lowest sits close to
        # a bare-mode asymptote
        rc = run("spectrum", "--delta", "0.05", "--n-modes", "8", "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = (tmp_path / "spectrum_roots.csv").read_text().splitlines()[2:]
        spacing = 0.5 / 0.05
        for k, line in enumerate(rows, start=1):
            omega_r = float(line.split(",")[1])
            assert abs(omega_r - k * spacing) < 0.05 * spacing


class TestAmplitudeCommand:
    @pytest.mark.parametrize("regime", ["exact", "free-space", "small"])
    def test_trace_schema(self, tmp_path, regime):
        rc = run("amplitude", "--regime", regime, "--steps", "9", "--t-max", "4",
                 "--n-modes", "32", "--out", str(tmp_path))
        assert rc == EXIT_OK
        lines = (tmp_path / "amplitude.csv").read_text().splitlines()
        assert lines[0] == "t,re_f,im_f,abs2_f,method"
        assert len(lines) == 10
        first = lines[1].split(",")
        # series regime carries an O(1/k_max) truncation deficit at t=0
        tol = 1e-4 if regime == "small" else 1e-6
        assert float(first[1]) == pytest.approx(1.0, abs=tol)

    def test_field_row_amplitude(self, tmp_path):
        rc = run("amplitude", "--regime", "exact", "--mu", "2", "--nu", "atom",
                 "--steps", "5", "--n-modes", "24", "--out", str(tmp_path))
        assert rc == EXIT_OK

    def test_atom_and_zero_name_one_row(self, tmp_path):
        # both labels are row 0, so f(0) = 1, not the 0 of two different rows
        rc = run("amplitude", "--regime", "exact", "--mu", "atom", "--nu", "0",
                 "--steps", "5", "--n-modes", "16", "--out", str(tmp_path))
        assert rc == EXIT_OK
        first = (tmp_path / "amplitude.csv").read_text().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-6)

    def test_exact_regime_emits_the_nu_column(self, tmp_path):
        rc = run("amplitude", "--regime", "exact", "--mu", "2", "--nu", "3",
                 "--steps", "9", "--n-modes", "16", "--out", str(tmp_path))
        assert rc == EXIT_OK
        t, re_f, im_f = np.loadtxt(tmp_path / "amplitude.csv", delimiter=",", skiprows=1,
                                   usecols=(0, 1, 2)).T
        tm = coupling.build_matrix(solve_eigenfrequencies(RunConfig(n_modes=16).atom_params()))
        ref = dynamics.amplitude_trace(tm, 2, 3, t).values
        assert np.max(np.abs(re_f + 1j * im_f - ref)) <= 1e-14


class TestImpurityCommand:
    def test_reference_figure_defaults(self, tmp_path):
        rc = run("impurity", "--steps", "41", "--n-modes", "64", "--out", str(tmp_path))
        assert rc == EXIT_OK
        for name in ("impurity_small_cavity.csv", "impurity_free_space.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "t,rho00,rho0101,rho1010,re_coh,im_coh,D,E"
            assert len(lines) == 42
            # the initial superposition is pure in both regimes
            assert float(lines[1].split(",")[6]) == pytest.approx(0.0, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("impurity", "--steps", "21", "--n-modes", "48",
                       "--out", str(out)) == EXIT_OK
        for name in ("impurity_small_cavity.csv", "impurity_free_space.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_svg_overlay(self, tmp_path):
        rc = run("impurity", "--steps", "21", "--n-modes", "48", "--svg",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        svg = (tmp_path / "impurity.svg").read_text()
        assert "small cavity" in svg and "free space" in svg
        assert "stroke-dasharray" in svg  # small-cavity curve is dashed


@pytest.mark.parametrize("regime, impurity_csv", [
    ("exact", "impurity_small_cavity.csv"),
    ("free-space", "impurity_free_space.csv"),
])
def test_entropy_file_is_the_impurity_file_of_its_regime(tmp_path, regime, impurity_csv):
    # impurity and entropy share one per-regime path, so their files agree bit for bit
    flags = ("--xi", "0.3", "--phi", "0.7", "--steps", "21", "--n-modes", "32")
    assert run("impurity", *flags, "--out", str(tmp_path / "i")) == EXIT_OK
    assert run("entropy", *flags, "--regime", regime, "--out", str(tmp_path / "e")) == EXIT_OK
    assert (tmp_path / "i" / impurity_csv).read_bytes() == (
        tmp_path / "e" / "entropy.csv").read_bytes()


class TestEntropyCommand:
    def test_constant_entropy_and_exit_zero(self, tmp_path, capsys):
        rc = run("entropy", "--xi", "0.25", "--steps", "33", "--n-modes", "48",
                 "--regime", "exact", "--out", str(tmp_path))
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "entropy_analytic=0.56233514461880829" in out
        lines = (tmp_path / "entropy.csv").read_text().splitlines()
        e_col = [float(l.split(",")[-1]) for l in lines[1:]]
        assert np.ptp(e_col) < 1e-10

    def test_free_space_regime(self, tmp_path):
        rc = run("entropy", "--xi", "0.5", "--steps", "7", "--t-max", "3",
                 "--regime", "free-space", "--out", str(tmp_path))
        assert rc == EXIT_OK
        lines = (tmp_path / "entropy.csv").read_text().splitlines()
        assert float(lines[1].split(",")[-1]) == pytest.approx(np.log(2), abs=1e-8)

    @pytest.mark.parametrize("xi", ["0.5", "0.25", "0.9"])
    def test_free_space_entropy_is_the_analytic_value(self, tmp_path, xi):
        # the continuum weight integrates to 1 exactly, so E is the initial entropy to the bit
        assert run("impurity", "--xi", xi, "--steps", "7", "--n-modes", "16",
                   "--out", str(tmp_path)) == EXIT_OK
        lines = (tmp_path / "impurity_free_space.csv").read_text().splitlines()
        expected = "%.17g" % bipartite.entanglement_entropy(float(xi))
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {expected}

    def test_svg_of_a_constant_entropy_is_flat(self, tmp_path):
        # at the defaults E is constant to a few ulps: the plot draws one
        # horizontal line, not the rounding noise
        assert run("entropy", "--svg", "--out", str(tmp_path)) == EXIT_OK
        svg = (tmp_path / "entropy.svg").read_text()
        points = re.search(r'<polyline [^>]*points="([^"]*)"', svg).group(1).split()
        assert len(points) == RunConfig().steps
        assert len({xy.split(",")[1] for xy in points}) == 1

    @pytest.mark.parametrize("norm", [1.0 + 2e-6, float("nan")])
    def test_free_space_checks_the_continuum_weight(self, tmp_path, monkeypatch, norm):
        monkeypatch.setattr(dynamics, "spectral_weight_norm", lambda omega_bar, g: norm)
        assert run("entropy", "--regime", "free-space", "--steps", "5",
                   "--out", str(tmp_path)) == EXIT_INVARIANT


@pytest.mark.parametrize("argv", [
    ("impurity",),
    ("entropy", "--regime", "exact"),
    ("amplitude", "--regime", "exact", "--mu", "2", "--nu", "3"),
])
def test_one_phase_sum_per_atom(tmp_path, monkeypatch, argv):
    # the emitted amplitude is a column of the row the command sums anyway
    kernel, calls = dynamics._phase_sum, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(dynamics, "_phase_sum", counted)
    assert run(*argv, "--steps", "9", "--n-modes", "16", "--out", str(tmp_path)) == EXIT_OK
    assert len(calls) == 1


class TestWriteCsv:
    """One printf template per file prints what format(float(v), '.17g') prints."""

    @staticmethod
    def _reference(header, rows):
        lines = [",".join(header)]
        lines += [",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row)
                  for row in rows]
        return "\n".join(lines) + "\n"

    def test_numeric_table(self, tmp_path):
        special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e-310,
                            0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, -7.0])
        rng = np.random.default_rng(11)
        # more rows than one printf block holds
        n = 30_000
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        values[: special.size] = special
        table = np.column_stack([np.arange(n), values, values[::-1]])
        write_csv(tmp_path / "t.csv", ["i", "a", "b"], table)
        assert (tmp_path / "t.csv").read_text() == self._reference(["i", "a", "b"], table)

    def test_integer_and_string_columns(self, tmp_path):
        rows = [(0, -0.0, "discrete-sum"), (1, float("nan"), "discrete-sum"),
                (2, 5e-324, "x"), (3, float("-inf"), "x")]
        table = np.array(rows, dtype=object)
        write_csv(tmp_path / "t.csv", ["r", "v", "method"], table)
        assert (tmp_path / "t.csv").read_text() == self._reference(["r", "v", "method"], rows)


class TestMatrixDumpCommand:
    def test_wide_schema(self, tmp_path):
        rc = run("matrix-dump", "--n-modes", "5", "--out", str(tmp_path))
        assert rc == EXIT_OK
        lines = (tmp_path / "transform_matrix.csv").read_text().splitlines()
        assert lines[0] == "r,Omega_r,t_atom_r,t_1_r,t_2_r,t_3_r,t_4_r,t_5_r"
        assert len(lines) == 7
        # column of the dump is a row of the CSV: atom element positive
        assert float(lines[1].split(",")[2]) > 0


class TestOracleCheckCommand:
    def test_reports_all_pass(self, capsys):
        rc = run("oracle-check", "--n-modes", "20")
        assert rc == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "check,max_err,tol,status"
        assert all(line.endswith(",pass") for line in out[1:])
        assert len(out) >= 6


class TestRunConfig:
    def test_defaults_mirror_reference_figure(self):
        cfg = RunConfig()
        assert (cfg.omega_bar, cfg.g, cfg.delta) == (1.0, 0.5, 0.1)
        assert cfg.t_max == 25.0
        p = cfg.atom_params()
        assert p.delta == pytest.approx(0.1, rel=1e-15)

    def test_fields_are_the_flags(self):
        # one table of keys: a config file and the command line name the same settings
        dests = set(vars(build_parser().parse_args(["spectrum"]))) - {"command", "config"}
        assert {f.name for f in fields(RunConfig)} == dests

    # a value for every key, none of them its default
    SAMPLE = {"omega_bar": "1.5", "g": "0.25", "delta": "0.05", "n_modes": "16", "xi": "0.25",
              "phi": "0.7", "regime": "exact", "t_max": "3", "steps": "7", "k_max": "100",
              "mu": "2", "nu": "3", "out": "runs", "svg": "true"}

    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
    def test_flag_and_file_read_a_value_alike(self, tmp_path, key):
        value = self.SAMPLE[key]
        flag = ["--" + key.replace("_", "-")]
        if not isinstance(getattr(RunConfig(), key), bool):
            flag.append(value)
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        parser = build_parser()
        by_flag = cli.config_from_args(parser.parse_args(["spectrum", *flag]))
        by_file = cli.config_from_args(
            parser.parse_args(["spectrum", "--config", str(tmp_path / "run.cfg")]))
        got, want = getattr(by_flag, key), getattr(by_file, key)
        assert got == want and type(got) is type(want)
        assert got != getattr(RunConfig(), key)
        assert by_flag == by_file


def test_package_imports_without_scipy():
    # scipy is a test oracle only: importing the package and its CLI loads none of it
    src = Path(bipartite.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dressedcavity, dressedcavity.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
