"""Every frozen record holds its arrays as read-only views and leaves the
caller's arrays as they were: built directly and through its producer.  A
transform's whole matrix, formed on first use and kept, is read-only too."""

from dataclasses import dataclass, fields

import numpy as np
import pytest

from dressedcavity import (
    AmplitudeTrace,
    DressedAtomParams,
    FreeSpaceParams,
    OracleDecomposition,
    QuadraticForm,
    ReducedAtomPairMatrix,
    SingleAtomReducedMatrix,
    SuperpositionSpec,
    TransformMatrix,
    amplitude_row,
    amplitude_trace,
    build_form,
    build_matrix,
    diagonalize,
    free_space_trace,
    reduced_pair_matrix,
    single_atom_reduced,
    solve_eigenfrequencies,
    survival_trace,
)
from dressedcavity.errors import freeze
from dressedcavity.spectrum import ModeSpectrum

PARAMS = DressedAtomParams(1.0, 0.5, 0.1, 8)
SPEC = solve_eigenfrequencies(PARAMS)
TM = build_matrix(SPEC)
FORM = build_form(PARAMS)
DECOMP = diagonalize(FORM)
PAIR = SuperpositionSpec(0.3, 0.7)


def _times():
    return np.linspace(0.0, 4.0, 9)


# name -> () -> (record, the caller's arrays it was built from)
BUILDS = {}


def build(fn):
    BUILDS[fn.__name__] = fn
    return fn


@build
def mode_spectrum():
    m, s = SPEC.asymptotes.copy(), SPEC.offsets.copy()
    return ModeSpectrum(PARAMS, m, s), [m, s]


@build
def mode_spectrum_by_solve_eigenfrequencies():
    return solve_eigenfrequencies(PARAMS), []


@build
def transform_matrix():
    return TransformMatrix(SPEC), []


@build
def transform_matrix_by_build_matrix():
    return build_matrix(SPEC), []


@build
def amplitude_trace_record():
    t, v = _times(), np.ones(9, dtype=complex)
    return AmplitudeTrace(t, v, "atom", "atom", "constant"), [t, v]


@build
def amplitude_trace_by_survival_trace():
    t = _times()
    return survival_trace(SPEC, t), [t]


@build
def amplitude_trace_by_amplitude_trace():
    t = _times()
    return amplitude_trace(TM, 2, 3, t), [t]


@build
def amplitude_trace_by_free_space_trace():
    t = _times()
    return free_space_trace(FreeSpaceParams(1.0, 0.5), t), [t]


@build
def quadratic_form():
    b = FORM.matrix.copy()
    return QuadraticForm(PARAMS, b), [b]


@build
def quadratic_form_by_build_form():
    return build_form(PARAMS), []


@build
def oracle_decomposition():
    lam, v = DECOMP.eigenvalues.copy(), DECOMP.vectors.copy()
    return OracleDecomposition(FORM, lam, v), [lam, v]


@build
def oracle_decomposition_by_diagonalize():
    return diagonalize(FORM), []


@build
def reduced_atom_pair_matrix():
    f = survival_trace(SPEC, _times()).values
    m = reduced_pair_matrix(f, f, PAIR, _times())
    arrays = {name: np.array(getattr(m, name)) for name in
              ("time", "p_ground", "p_b_excited", "p_a_excited", "coherence")}
    return ReducedAtomPairMatrix(**arrays), list(arrays.values())


@build
def reduced_atom_pair_matrix_by_reduced_pair_matrix():
    t = _times()
    f = survival_trace(SPEC, t).values.copy()
    return reduced_pair_matrix(f, f, PAIR, t), [t, f]


@build
def single_atom_reduced_matrix():
    t = _times()
    row = amplitude_row(TM, "atom", t)
    return SingleAtomReducedMatrix(t, PAIR.xi, row), [t, row]


@build
def single_atom_reduced_matrix_by_single_atom_reduced():
    t = _times()
    row = amplitude_row(TM, "atom", t)
    return single_atom_reduced(row, PAIR, t), [t, row]


@pytest.mark.parametrize("name", BUILDS)
def test_record_arrays_are_read_only_and_caller_arrays_stay_writable(name):
    record, caller = BUILDS[name]()
    held = [getattr(record, f.name) for f in fields(record)
            if isinstance(getattr(record, f.name), np.ndarray)]
    if isinstance(record, TransformMatrix):
        held.append(record.t)  # formed on first use and kept
        assert record.t is held[-1]
    assert held
    assert not [a for a in held if a.flags.writeable]
    assert all(a.flags.writeable for a in caller)


def test_freeze_stores_read_only_views_not_copies():
    @dataclass(frozen=True)
    class Record:
        a: np.ndarray
        x: float

    a = np.arange(4.0)
    r = Record(a, 1.0)
    freeze(r, a=a, x=2.5)
    assert r.x == 2.5
    assert r.a.base is a and a.flags.writeable and not r.a.flags.writeable
