"""In-memory spans around the package's public entry points.

``Tracer.patch(package)`` replaces each function named in ``ENTRY_POINTS``
by a wrapper in every ``dressedcavity`` module that binds it, whether as the
defining module's attribute, a ``from ... import`` name (``cli`` binds
``solve_eigenfrequencies``, ``dynamics`` binds ``atom_weights``) or the
package's re-export, and fails if any binding of the original is left.
``unpatch()`` puts the originals back.

A wrapper called while a span of the same layer is open adds no span of its
own: ``free_space_trace`` calling ``amplitude_free_space`` is one
``dynamics.free_space`` span.  Spans of one job share its id; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time

import numpy as np

# (module, function) -> layer.  A layer's calls are those of its first function.
ENTRY_POINTS = {
    ("spectrum", "solve_eigenfrequencies"): "spectrum.solve",
    ("spectrum", "secular_residual"): "spectrum.residual",
    ("spectrum", "cotangent_curves"): "spectrum.residual",
    ("spectrum", "cotangent_residual"): "spectrum.residual",
    ("coupling", "build_matrix"): "coupling.build_matrix",
    ("coupling", "atom_weights"): "coupling.atom_weights",
    ("dynamics", "free_space_trace"): "dynamics.free_space",
    ("dynamics", "amplitude_free_space"): "dynamics.free_space",
    ("dynamics", "imag_survival_integral"): "dynamics.free_space",
    ("dynamics", "amplitude_trace"): "dynamics.discrete",
    ("dynamics", "amplitude_row"): "dynamics.discrete",
    ("dynamics", "amplitude_discrete"): "dynamics.discrete",
    ("dynamics", "small_cavity_trace"): "dynamics.small_cavity",
    ("dynamics", "small_cavity_amplitude"): "dynamics.small_cavity",
    ("dynamics", "survival_sq_small_cavity"): "dynamics.small_cavity",
    ("dynamics", "survival_trace"): "dynamics.survival",
    ("bipartite", "reduced_pair_matrix"): "bipartite",
    ("bipartite", "impurity"): "bipartite",
    ("bipartite", "impurity_identical"): "bipartite",
    ("bipartite", "single_atom_reduced"): "bipartite",
    ("bipartite", "von_neumann_entropy"): "bipartite",
    ("bipartite", "entanglement_entropy"): "bipartite",
    ("oracle", "diagonalize"): "oracle.diagonalize",
    ("oracle", "build_form"): "oracle.diagonalize",
    ("oracle", "jacobi_eigh"): "oracle.diagonalize",
    ("oracle", "run_cross_checks"): "oracle.cross_checks",
    ("oracle", "oracle_amplitude"): "oracle.cross_checks",
    ("cli", "main"): "cli",
    ("cli", "write_csv"): "cli.write_csv",
    ("svgplot", "line_plot"): "svgplot",
}

MODULES = ("spectrum", "coupling", "dynamics", "bipartite", "oracle", "cli", "svgplot")


def _n1(arg) -> int:
    """N + 1 of a ModeSpectrum or a TransformMatrix argument."""
    return getattr(arg, "spectrum", arg).params.n_modes + 1


def _t(args) -> int:
    return int(np.size(args["times"]))


# Counts recorded at the boundary, from the bound arguments and the result.
WORK = {
    "solve_eigenfrequencies": lambda a, r: {"roots": a["params"].n_modes + 1,
                                            "key": a["params"]},
    "build_matrix": lambda a, r: {"bytes": _n1(a["spectrum"]) ** 2 * 8,
                                  "key": a["spectrum"].params},
    "atom_weights": lambda a, r: {"weight_sum_defect": abs(float(np.sum(r)) - 1.0)},
    "free_space_trace": lambda a, r: {"points": _t(a)},
    "amplitude_free_space": lambda a, r: {"points": 1},
    "imag_survival_integral": lambda a, r: {"points": 1},
    "amplitude_trace": lambda a, r: {"terms": _t(a) * _n1(a["tm"])},
    "amplitude_row": lambda a, r: {"terms": _t(a) * _n1(a["tm"]) ** 2},
    "amplitude_discrete": lambda a, r: {"terms": _n1(a["tm"])},
    "small_cavity_trace": lambda a, r: {"terms": _t(a) * (a["k_max"] + 1)},
    "small_cavity_amplitude": lambda a, r: {"terms": _t(a) * (a["k_max"] + 1)},
    "survival_sq_small_cavity": lambda a, r: {"terms": a["k_max"] + 1},
    "survival_trace": lambda a, r: {"terms": _t(a) * _n1(a["spectrum"])},
    "run_cross_checks": lambda a, r: {"failed": sum(not row.passed for row in r)},
    "write_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Span:
    __slots__ = ("job", "layer", "fn", "parent", "start", "end", "work")

    def __init__(self, job, layer, fn, parent, start):
        self.job, self.layer, self.fn, self.parent = job, layer, fn, parent
        self.start, self.end, self.work = start, 0.0, None

    def as_dict(self, index: dict) -> dict:
        work = {k: v for k, v in (self.work or {}).items() if k != "key"}
        return {"job": self.job, "layer": self.layer, "fn": self.fn,
                "parent": index.get(id(self.parent)), "start": self.start,
                "end": self.end, **work}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._job = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def job(self, job_id):
        """The root span of one job; wrapped calls outside any job add none."""
        root = Span(job_id, "job", "job", None, time.perf_counter())
        self.spans.append(root)
        self._job, self._stack = job_id, [root]
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._job, self._stack = None, []

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        count = WORK.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if not stack or stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = Span(self._job, layer, name, stack[-1], time.perf_counter())
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = count(bound.arguments, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for (mod_name, fn_name), layer in ENTRY_POINTS.items():
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
            left = [f"{m.__name__}.{a}" for m in modules for a, v in vars(m).items()
                    if v is original]
            if left:
                raise RuntimeError(f"unpatched bindings of {fn_name}: {left}")

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- analysis -----------------------------------------------------------

    def dump(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(index)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children, by id(span)."""
    own = {id(s): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.end - s.start
    return own
