"""The benchmark's tracer must find every entry point it wraps.

``bench/tracing.py`` looks up each ``ENTRY_POINTS`` name on the package, so
renaming or deleting one of those functions breaks ``bench/run.py --trace 1``.
Its ``WORK`` table reads arguments by name (``path``, ``tm``, ``times``,
``spectrum``, ``params``, ``k_max``), so renaming one of those breaks it
too; each ``WORK`` entry is reached here once.
"""

import importlib.util
from pathlib import Path

import numpy as np

import dressedcavity
import dressedcavity.cli  # noqa: F401  (the tracer patches cli and svgplot too)
from dressedcavity import spectrum

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_entry_point():
    tracing = _load_tracing()
    original = spectrum.solve_eigenfrequencies
    tracer = tracing.Tracer()
    try:
        tracer.patch(dressedcavity)
        assert spectrum.solve_eigenfrequencies is not original
    finally:
        tracer.unpatch()
    assert spectrum.solve_eigenfrequencies is original
    assert dressedcavity.solve_eigenfrequencies is original


def test_traced_cli_jobs_record_work_counts(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.patch(dressedcavity)
    try:
        with tracer.job(0):
            assert dressedcavity.cli.main(["impurity", "--svg", "--steps", "9", "--n-modes",
                                           "16", "--out", str(tmp_path / "a")]) == 0
        with tracer.job(1):
            assert dressedcavity.cli.main(["matrix-dump", "--n-modes", "8",
                                           "--out", str(tmp_path / "b")]) == 0
        with tracer.job(2):
            assert dressedcavity.cli.main(["amplitude", "--regime", "exact", "--steps", "9",
                                           "--n-modes", "16", "--out", str(tmp_path / "c")]) == 0
    finally:
        tracer.unpatch()

    def work(job, fn):
        return [s.work for s in tracer.spans if s.job == job and s.fn == fn]

    # the impurity figure's exact survival: one pair trace from the record's rows,
    # its entropy certified by the static margin without the dense amplitude row
    assert work(0, "amplitude_trace") == [{"terms": 9 * 17}]
    assert work(0, "amplitude_row") == []
    for job, files in ((0, 2), (1, 1)):
        written = work(job, "write_csv")
        assert len(written) == files and all(w["bytes"] > 0 for w in written)
    assert [w["bytes"] for w in work(1, "build_matrix")] == [9 ** 2 * 8]
    assert {s.layer for s in tracer.spans if s.job == 0} >= {"bipartite", "svgplot"}
    # the exact amplitude: one pair trace from the rows it names, inside the
    # layers the sweep deck declares (its survival sum is never reached)
    assert work(2, "amplitude_trace") == [{"terms": 9 * 17}]
    assert len(work(2, "build_matrix")) == 1
    assert {s.fn for s in tracer.spans if s.job == 2}.isdisjoint(
        {"survival_trace", "amplitude_row"})


def test_every_work_entry_records_its_count(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    dc = dressedcavity
    cli_jobs = [["oracle-check", "--n-modes", "8"],
                ["amplitude", "--steps", "9", "--k-max", "50"],
                ["entropy", "--regime", "free-space", "--steps", "9"],
                ["spectrum", "--n-modes", "8"]]
    params = dc.DressedAtomParams(1.0, 0.5, 0.1, 8)
    tracer.patch(dc)
    try:
        for job, argv in enumerate(cli_jobs):
            with tracer.job(job):
                assert dc.cli.main(argv + ["--out", str(tmp_path / str(job))]) == 0
        with tracer.job("library"):
            spec = dc.solve_eigenfrequencies(params)
            dc.survival_trace(spec, np.linspace(0.0, 4.0, 5), dc.atom_weights(spec))
            dc.amplitude_discrete(dc.build_matrix(spec), "atom", 2, 1.0)
            dc.amplitude_free_space(dc.FreeSpaceParams(1.0, 0.5), 1.0)
            dc.imag_survival_integral(1.0, 1.0, 0.5)
            dc.survival_sq_small_cavity(1.0, params, k_max=50)
            dc.amplitude_row(dc.build_matrix(spec), "atom", np.linspace(0.0, 4.0, 5))
            dc.small_cavity_amplitude(params, np.linspace(0.0, 4.0, 5), k_max=50)
    finally:
        tracer.unpatch()

    def work(job, fn):
        return [{k: v for k, v in s.work.items() if k != "key"}
                for s in tracer.spans if s.job == job and s.fn == fn]

    assert work(0, "run_cross_checks") == [{"failed": 0}]
    assert work(0, "amplitude_trace") == [{"terms": 9 * 9}]
    assert work(1, "small_cavity_trace") == [{"terms": 9 * 51}]
    assert work(2, "free_space_trace") == [{"points": 9}]
    assert work(3, "solve_eigenfrequencies") == [{"roots": 9}]
    assert work("library", "solve_eigenfrequencies") == [{"roots": 9}]
    [weights] = work("library", "atom_weights")
    assert weights["weight_sum_defect"] <= 1e-12
    assert work("library", "survival_trace") == [{"terms": 5 * 9}]
    assert work("library", "amplitude_discrete") == [{"terms": 9}]
    assert work("library", "amplitude_free_space") == [{"points": 1}]
    assert work("library", "imag_survival_integral") == [{"points": 1}]
    assert work("library", "survival_sq_small_cavity") == [{"terms": 51}]
    assert work("library", "amplitude_row") == [{"terms": 5 * 9**2}]
    assert work("library", "small_cavity_amplitude") == [{"terms": 5 * 51}]
