"""The benchmark's tracer must find every entry point it wraps.

``bench/tracing.py`` looks up each ``ENTRY_POINTS`` name on the package, so
renaming or deleting one of those functions breaks ``bench/run.py --trace 1``.
Its ``WORK`` table reads arguments by name (``path``, ``tm``, ``times``,
``spectrum``), so renaming one of those breaks it too.
"""

import importlib.util
from pathlib import Path

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
    finally:
        tracer.unpatch()

    def work(job, fn):
        return [s.work for s in tracer.spans if s.job == job and s.fn == fn]

    assert work(0, "amplitude_row") == [{"terms": 9 * 17 ** 2}]
    for job, files in ((0, 2), (1, 1)):
        written = work(job, "write_csv")
        assert len(written) == files and all(w["bytes"] > 0 for w in written)
    assert [w["bytes"] for w in work(1, "build_matrix")] == [9 ** 2 * 8]
    assert {s.layer for s in tracer.spans if s.job == 0} >= {"bipartite", "svgplot"}
