"""The benchmark's tracer must find every entry point it wraps.

``bench/tracing.py`` looks up each ``ENTRY_POINTS`` name on the package, so
renaming or deleting one of those functions breaks ``bench/run.py --trace 1``.
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
