import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dressedcavity import bipartite, cli, coupling, dynamics, oracle, spectrum
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


FIELDS = [f.name for f in fields(RunConfig)]

# a value for every key, none of them its default
SAMPLE = {"omega_bar": "1.5", "g": "0.25", "delta": "0.05", "n_modes": "16", "xi": "0.25",
          "phi": "0.7", "regime": "exact", "t_max": "3", "steps": "7", "k_max": "100",
          "mu": "2", "nu": "3", "out": "runs", "svg": "true"}


def run(*argv):
    return main(list(argv))


def keys_of(command):
    return cli._COMMANDS[command][1]


def refusal(command, key):
    """The one refusal of a key outside ``command``, from a flag or a file line."""
    return f"{command} reads no key {key!r}; its keys are {', '.join(keys_of(command))}"


def flag_of(key):
    """The command-line words that set ``key`` to its SAMPLE value."""
    flag = "--" + key.replace("_", "-")
    return [flag] if isinstance(getattr(RunConfig(), key), bool) else [flag, SAMPLE[key]]


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
        vals = parse_config_file(str(cfg), "amplitude")
        assert vals == {"omega_bar": 1.0, "g": 0.5, "n_modes": 64,
                        "svg": True, "regime": "exact", "delta": 3.0,
                        "steps": 11, "k_max": 500, "mu": "2"}
        assert [type(vals[k]) for k in ("delta", "steps", "k_max", "mu")] == [
            float, int, int, str]

    def test_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coupling = 0.5\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(str(cfg), "impurity")
        assert str(exc.value) == (f"{cfg}:1: impurity reads no key 'coupling'; its keys are "
                                  "omega_bar, g, delta, n_modes, out, xi, phi, t_max, steps, svg")

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

    @pytest.mark.parametrize("flag, value", [("--c", "2.0"), ("--omega", "2"), ("--n-mode", "8")])
    def test_each_flag_has_one_spelling(self, tmp_path, capsys, flag, value):
        # a prefix of a flag is not that flag: --c is not --config, --omega not --omega-bar
        assert run("spectrum", flag, value, "--out", str(tmp_path)) == EXIT_USAGE
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {refusal('spectrum', key)}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, word", [(("spectrum", "--svg", "true"), "true"),
                                            (("impurity", "steps", "5"), "steps")])
    def test_stray_word_is_refused_as_itself(self, tmp_path, capsys, argv, word):
        # a leftover word that is not a --flag is named as a stray argument, not as a key
        assert run(*argv, "--out", str(tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {argv[0]}: stray argument {word!r}\n"
        assert not any(tmp_path.iterdir())

    def test_usage_bad_regime(self, tmp_path, capsys):
        # one check, RunConfig.validate, refuses a bad regime from a flag or a file alike
        (tmp_path / "run.cfg").write_text("regime = medium\n")
        message = "error: regime must be one of ('small', 'free-space', 'exact'), got 'medium'"
        for source in (["--regime", "medium"], ["--config", str(tmp_path / "run.cfg")]):
            assert run("amplitude", *source, "--out", str(tmp_path / "out")) == EXIT_USAGE
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("argv, message", [
        (("amplitude", "--regime", "free-space", "--t-max", "nan", "--steps", "5"),
         "t_max must be positive and finite, got nan"),
        (("amplitude", "--regime", "free-space", "--t-max", "inf", "--steps", "5"),
         "t_max must be positive and finite, got inf"),
        (("impurity", "--phi", "nan", "--steps", "5"), "phi must be finite, got nan"),
        (("spectrum", "--omega-bar", "inf"), "must all be positive and finite, got omega_bar=inf"),
        (("spectrum", "--delta", "inf"), "must all be positive and finite, got omega_bar=1.0, "
                                         "g=0.5, delta=inf"),
        (("spectrum", "--c", "inf"), "error: spectrum reads no key 'c'; its keys are "
                                     "omega_bar, g, delta, n_modes, out, svg\n"),
        # finite, but omega_bar^2 or dw^4 = (g / delta)^4 overflows
        (("spectrum", "--omega-bar", "1e200"), "and dw^4 must be finite, got 6.283e-01, inf,"),
        (("spectrum", "--delta", "1e-3", "--g", "1e150"), "6.400e+307, inf"),
        # R = pi delta / g = 1e300, so dw^4 underflows to 0
        (("spectrum", "--delta", "1.5915494309189535e299"),
         "dw^4 must be a normal double, >= 2.225e-308, got 0.000e+00"),
    ], ids=["t-max-nan", "t-max-inf", "phi-nan", "omega-bar-inf", "delta-inf", "c-inf",
            "omega-bar-sq-overflow", "dw-fourth-overflow", "dw-fourth-underflow"])
    def test_usage_non_finite_input(self, tmp_path, capsys, argv, message):
        assert run(*argv, "--n-modes", "8", "--out", str(tmp_path)) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_a_negative_value_follows_its_flag(self, tmp_path, capsys):
        # argparse alone takes -1e-3 for a flag; a value flag takes the next word
        # whatever it starts with, as a file line does: every spelling writes one file
        (tmp_path / "run.cfg").write_text("phi = -1e-3\n")
        tiny = ["entropy", "--regime", "exact", "--n-modes", "16", "--steps", "7"]
        sources = {"flag": ["--phi", "-1e-3"], "joined": ["--phi=-1e-3"],
                   "plain": ["--phi", "-0.001"], "file": ["--config", str(tmp_path / "run.cfg")],
                   "default": []}
        for name, source in sources.items():
            assert run(*tiny, *source, "--out", str(tmp_path / name)) == EXIT_OK
        assert "error" not in capsys.readouterr().err
        files = {name: (tmp_path / name / "entropy.csv").read_bytes() for name in sources}
        assert files["flag"] == files["joined"] == files["plain"] == files["file"]
        assert files["file"] != files["default"]  # the coherence columns read phi

    @pytest.mark.parametrize("argv, message", [
        (("--phi", "-inf"), "error: phi must be finite, got -inf\n"),
        (("--phi", "--steps", "5"), "error: --phi: phi must be a number, got '--steps'\n"),
    ], ids=["minus-inf", "flag-as-value"])
    def test_a_value_flag_reads_the_next_word_by_its_own_check(self, tmp_path, capsys, argv,
                                                               message):
        assert run("entropy", "--regime", "exact", *argv, "--out", str(tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err == message
        assert not any(tmp_path.iterdir())

    def test_bad_xi_exits_before_the_solve(self, tmp_path, monkeypatch):
        def solve(params):
            raise AssertionError("solved before the superposition was checked")

        monkeypatch.setattr(cli, "solve_eigenfrequencies", solve)
        assert run("entropy", "--regime", "exact", "--xi", "1.5", "--n-modes", "2000",
                   "--out", str(tmp_path)) == EXIT_USAGE

    def test_bad_row_label_exits_before_the_solve(self, tmp_path, monkeypatch):
        # the labels are parsed with the rest of the run's keys, not by the route
        calls = []
        monkeypatch.setattr(cli, "solve_eigenfrequencies",
                            lambda params: calls.append(params) or solve_eigenfrequencies(params))
        assert run("amplitude", "--regime", "exact", "--mu", "500", "--steps", "5",
                   "--out", str(tmp_path)) == EXIT_USAGE
        assert run("amplitude", "--regime", "exact", "--mu", "200", "--steps", "5",
                   "--out", str(tmp_path)) == EXIT_OK
        assert len(calls) == 1

    def test_delta_just_below_the_small_cavity_gate(self, tmp_path):
        # delta is kept as given: g R / pi would round it up to the gate, 0.2
        assert run("amplitude", "--delta", "0.19999999999999998", "--steps", "5",
                   "--k-max", "100", "--out", str(tmp_path)) == EXIT_OK

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("flag, value", [("--xi", "1.5"), ("--phi", "nan")])
    def test_usage_bad_superposition_for_every_command(self, tmp_path, capsys, command, flag,
                                                       value):
        # a command that reads xi and phi refuses a bad value before any work;
        # every other command refuses the flag itself
        assert run(command, flag, value, "--n-modes", "8", "--out", str(tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        if flag[2:] in keys_of(command):
            assert f"error: {flag[2:]} must" in err and err.endswith(f"got {value}\n")
        else:
            assert err == f"error: {refusal(command, flag[2:])}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, key", [(c, k) for c in cli._COMMANDS for k in FIELDS
                                              if k not in keys_of(c)])
    def test_usage_key_outside_the_command(self, tmp_path, capsys, command, key):
        # a key the command never reads is refused, from a flag and from a file alike
        out = tmp_path / "out"
        (tmp_path / "run.cfg").write_text(f"{key} = {SAMPLE[key]}\n")
        assert run(command, *flag_of(key), "--n-modes", "8", "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {refusal(command, key)}\n"
        assert run(command, "--config", str(tmp_path / "run.cfg"), "--n-modes", "8",
                   "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'run.cfg'}:1: {refusal(command, key)}\n"
        assert not out.exists()

    def test_flag_and_file_are_refused_alike(self, tmp_path, capsys):
        # the refusal names the subcommand and the keys it reads, not the top-level usage
        message = ("impurity reads no key 'regime'; its keys are "
                   "omega_bar, g, delta, n_modes, out, xi, phi, t_max, steps, svg\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nregime = small\n")
        for argv, where in ((["--regime", "small"], ""), (["--regime=small"], ""),
                            (["--config", str(cfg)], f"{cfg}:2: ")):
            assert run("impurity", *argv, "--out", str(tmp_path / "out")) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {where}{message}"
        assert not (tmp_path / "out").exists()

    def test_bad_value_names_its_key_and_source(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("steps = x\n")
        assert run("impurity", "--steps", "x", "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --steps: steps must be an integer, got 'x'\n"
        assert run("impurity", "--config", str(tmp_path / "run.cfg"),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'run.cfg'}:1: steps must be an integer, got 'x'\n")
        assert run("spectrum", "--delta", "small", "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --delta: delta must be a number, got 'small'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["maybe", "", "2", "yess"])
    def test_a_boolean_takes_only_its_spellings(self, tmp_path, capsys, value):
        (tmp_path / "run.cfg").write_text(f"n_modes = 8\nsvg = {value}\n")
        assert run("spectrum", "--config", str(tmp_path / "run.cfg"),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'run.cfg'}:2: svg must be one of 1/true/yes/on or "
            f"0/false/no/off, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, svg", [(word, True) for word in ("1", "true", "Yes", "ON")]
                             + [(word, False) for word in ("0", "FALSE", "no", "Off")])
    def test_boolean_spellings_in_any_case(self, tmp_path, value, svg):
        (tmp_path / "run.cfg").write_text(f"n_modes = 8\nsvg = {value}\n")
        assert run("spectrum", "--config", str(tmp_path / "run.cfg"),
                   "--out", str(tmp_path)) == EXIT_OK
        assert (tmp_path / "spectrum.svg").exists() == svg

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_exits_0(self, tmp_path, capsys, command, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(command, "-h") == EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: dressed-cavity {command} [-h]")
        assert run("-h") == EXIT_OK
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["impurity", "--steps"], ["impurity", "--svg", "--out"],
                                      ["spectra"], []],
                             ids=["no-value", "no-out", "unknown-command", "no-command"])
    def test_argparse_usage_errors_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        # argparse's own usage errors (exit 2) are the tool's usage exit, and write nothing
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: dressed-cavity") and "error: " in err
        assert not any(tmp_path.iterdir())

    def test_numerical_failure_on_nan_residuals(self, tmp_path, capsys, monkeypatch):
        # every newton_rel NaN fails the solver's check; no input reaches one
        # now that dw^4 must be a normal double, so F is made NaN (the slope
        # kept at 1, since the spectrum refuses a NaN weight first)
        nan_f = lambda m, *_, **__: np.stack((np.full(m.size, np.nan), np.ones(m.size)))
        monkeypatch.setattr(spectrum, "_secular_sets", nan_f)
        rc = run("spectrum", "--n-modes", "8", "--out", str(tmp_path))
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
        assert "cot(R Omega)" in svg  # c = 1: the legend names no wave speed

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--g", "1e-9", "--n-modes", "8"),
        ("matrix-dump", "--g", "1e-7", "--delta", "1", "--n-modes", "8"),
    ], ids=["spectrum", "matrix-dump"])
    def test_weak_coupling_solves(self, tmp_path, capsys, argv):
        # every root within a few ulps of its asymptote in the float Omega_r
        assert run(*argv, "--out", str(tmp_path)) == EXIT_OK
        assert capsys.readouterr().err == ""

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

    def test_exact_survival_column_is_the_survival_trace(self, tmp_path):
        # atom-atom weighs by the spectrum's own weights: survival_trace bit for bit
        rc = run("amplitude", "--regime", "exact", "--steps", "9", "--n-modes", "16",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        t, re_f, im_f = np.loadtxt(tmp_path / "amplitude.csv", delimiter=",", skiprows=1,
                                   usecols=(0, 1, 2)).T
        spec = solve_eigenfrequencies(RunConfig(n_modes=16).atom_params())
        assert np.array_equal(re_f + 1j * im_f, dynamics.survival_trace(spec, t).values)

    def test_only_the_dense_routes_are_capped(self, tmp_path, monkeypatch, capsys):
        # every exact command takes the rows it names; only the dense dump is
        # capped, and the oracle skips its Jacobi above the cap and prints its
        # direct rows
        monkeypatch.setattr(coupling, "MATRIX_MODE_CAP", 8)
        monkeypatch.setattr(oracle, "jacobi_eigh",
                            lambda *a, **k: pytest.fail("the Jacobi ran above the cap"))
        argv = ("--steps", "5", "--n-modes", "16")
        assert run("amplitude", "--regime", "exact", "--mu", "2", "--nu", "3", *argv,
                   "--out", str(tmp_path / "a")) == EXIT_OK
        assert run("entropy", "--regime", "exact", *argv, "--out", str(tmp_path / "e")) == EXIT_OK
        assert run("impurity", *argv, "--out", str(tmp_path / "i")) == EXIT_OK
        capsys.readouterr()
        assert run("matrix-dump", "--n-modes", "16", "--out", str(tmp_path / "m")) == EXIT_USAGE
        assert "error: n_modes=16 exceeds the dense-matrix cap 8" in capsys.readouterr().err
        assert not (tmp_path / "m" / "transform_matrix.csv").exists()
        assert run("oracle-check", "--n-modes", "16", "--out", str(tmp_path / "o")) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(name, status) for name, *_, status in rows] == [
            ("direct_residual", "pass"), ("direct_weight", "pass")]

    @pytest.mark.parametrize("system", [("--g", "1", "--delta", "1e76"),
                                        ("--omega-bar", "1.25e-70", "--g", "1.25e-67",
                                         "--delta", "1e10")])
    @pytest.mark.parametrize("command", ["spectrum", "impurity"])
    def test_an_overflowing_slope_is_a_named_refusal(self, tmp_path, capsys, command, system):
        # the weights would read 0 there; the spectrum refuses them
        assert run(command, *system, "--n-modes", "8", "--out", str(tmp_path)) == EXIT_NUMERICAL
        assert ("numerical failure: root 0 atom weight 0.000e+00 is not finite and positive"
                in capsys.readouterr().err)

    def test_exact_unitarity_margin_is_checked(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(coupling.TransformMatrix, "unitarity_margin", lambda self, mu: 2e-6)
        rc = run("amplitude", "--regime", "exact", "--steps", "5", "--n-modes", "16",
                 "--out", str(tmp_path))
        assert rc == EXIT_INVARIANT
        assert "unitarity margin 2.000e-06 of row 0 exceeds 1e-06" in capsys.readouterr().err


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

    def test_prints_the_drift_bound_and_writes_the_constant(self, tmp_path, capsys):
        # the exact route certifies E over every t from row 0 of the record alone
        argv = ("--xi", "0.25", "--steps", "33", "--n-modes", "48")
        assert run("entropy", "--regime", "exact", *argv, "--out", str(tmp_path)) == EXIT_OK
        cfg = RunConfig(xi=0.25, steps=33, n_modes=48)
        tm = coupling.build_matrix(solve_eigenfrequencies(cfg.atom_params()))
        margin = tm.unitarity_margin(0)
        deviation = margin + dynamics.row_norm_rounding(tm, 0, margin)
        bound = bipartite.entropy_drift_bound(0.25, deviation)
        assert f"max_deviation={bound:.3e}" in capsys.readouterr().out
        lines = (tmp_path / "entropy.csv").read_text().splitlines()[1:]
        expected = "%.17g" % bipartite.entanglement_entropy(0.25)
        assert {line.rsplit(",", 1)[1] for line in lines} == {expected}

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

    @pytest.mark.parametrize("argv", [("entropy", "--regime", "exact"), ("impurity",)],
                             ids=["entropy", "impurity"])
    def test_exact_entropy_drift_fails_before_any_file(self, tmp_path, monkeypatch, capsys,
                                                       argv):
        # both commands write the exact route's entropy column, so both hold its
        # drift bound to 1e-8: a margin under the 1e-6 unitarity tolerance can
        # still bound E only to about 7.7e-8 at xi = 0.5
        monkeypatch.setattr(coupling.TransformMatrix, "unitarity_margin", lambda self, mu: 5e-7)
        assert run(*argv, "--steps", "5", "--n-modes", "16", "--out", str(tmp_path)) \
            == EXIT_INVARIANT
        assert "entropy drift bound 7.671e-08 exceeds 1e-8" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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


@pytest.mark.parametrize("argv", [
    ("impurity",),
    ("entropy", "--regime", "exact"),
    ("amplitude", "--regime", "exact", "--mu", "3"),
])
def test_one_residual_raise_per_exact_job(tmp_path, monkeypatch, argv):
    # the record forms the raised residuals in its build, and the row's margin reads them
    raise_residuals, calls = spectrum.ModeSpectrum.raised_residuals, []

    def counted(self):
        calls.append(self)
        return raise_residuals(self)

    monkeypatch.setattr(spectrum.ModeSpectrum, "raised_residuals", counted)
    assert run(*argv, "--steps", "9", "--n-modes", "16", "--out", str(tmp_path)) == EXIT_OK
    assert len(calls) == 1


class TestWriteCsv:
    """Each cell is what format(float(v), '.17g') prints, and a string column as it is."""

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
        # more rows than one block of cells holds
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
        # one table of keys: a command's flags are the keys it reads, and every
        # key is read by some command
        parser = build_parser()
        for command, (_, keys) in cli._COMMANDS.items():
            dests = set(vars(parser.parse_args([command]))) - {"command", "config"}
            assert dests == set(keys)
        assert set().union(*(keys for _, keys in cli._COMMANDS.values())) == set(FIELDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_each_command_reads_exactly_its_keys(self, tmp_path, command):
        # the fields a command function reads, over every regime it takes, are its
        # keys; oracle-check takes --out with the others but writes nothing
        read = set()

        class Recording(RunConfig):
            def __getattribute__(self, name):
                if name in FIELDS:
                    read.add(name)
                return super().__getattribute__(name)

        keys = keys_of(command)
        tiny = [word for key, value in (("n_modes", "8"), ("steps", "5"), ("k_max", "100"))
                if key in keys for word in ("--" + key.replace("_", "-"), value)]
        runs = [["--regime", regime] for regime in cli._REGIMES] if "regime" in keys else [[]]
        for i, regime in enumerate(runs):
            argv = [command, *tiny, *regime, "--out", str(tmp_path / str(i))]
            cfg = cli.config_from_args(build_parser().parse_args(argv))
            recording = Recording(**{name: getattr(cfg, name) for name in FIELDS})
            assert cli._COMMANDS[command][0](recording) == EXIT_OK
        assert read == set(keys) - ({"out"} if command == "oracle-check" else set())

    @pytest.mark.parametrize("key", FIELDS)
    def test_flag_and_file_read_a_value_alike(self, tmp_path, key):
        command = next(c for c in cli._COMMANDS if key in keys_of(c))
        (tmp_path / "run.cfg").write_text(f"{key} = {SAMPLE[key]}\n")
        parser = build_parser()
        by_flag = cli.config_from_args(parser.parse_args([command, *flag_of(key)]))
        by_file = cli.config_from_args(
            parser.parse_args([command, "--config", str(tmp_path / "run.cfg")]))
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
