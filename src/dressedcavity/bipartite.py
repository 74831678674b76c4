"""Two dressed atoms sharing one superposed excitation: reduced states.

At t = 0 the pair is prepared in

    sqrt(xi) |1_A, 0_B> + sqrt(1 - xi) e^{i phi} |0_A, 1_B>,

each atom dressed by its own independent field cloud.  Tracing the field
out leaves a 4x4 reduced matrix in the basis {|00>, |01>, |10>, |11>}
whose entries depend only on the two survival amplitudes f_AA(t), f_BB(t):

    rho_00,00 = 1 - xi |f_AA|^2 - (1-xi) |f_BB|^2
    rho_01,01 = (1-xi) |f_BB|^2
    rho_10,10 = xi |f_AA|^2
    rho_10,01 = sqrt(xi(1-xi)) e^{i phi} f_AA^* f_BB        (+ c.c.)
    rho_11,11 = 0                                           (one excitation)

The impurity D = 1 - Tr rho^2 = 2 w (1 - w) with
w = xi |f_AA|^2 + (1-xi) |f_BB|^2 measures how far the pair state has
drifted from purity; for identical atoms it collapses to
2 |f_00|^2 (1 - |f_00|^2), independent of xi and phi.

Tracing out atom B instead gives a single-atom reduced matrix of rank two
with eigenvalues {1 - xi, xi * sum_nu |f_A_nu|^2} = {1 - xi, xi}; the von
Neumann entropy built from them is therefore constant in time for any
cavity size, which is the invariant this module exists to expose.

Every function takes one time or arrays over a grid of times, and checks
every invariant at every time; a failure names the first time it happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvariantViolation, require

__all__ = [
    "SuperpositionSpec",
    "ReducedAtomPairMatrix",
    "SingleAtomReducedMatrix",
    "reduced_pair_matrix",
    "impurity",
    "impurity_identical",
    "single_atom_reduced",
    "von_neumann_entropy",
    "entanglement_entropy",
]

_TRACE_TOL = 1e-9
_PSD_TOL = 1e-9
_ROW_NORM_TOL = 1e-6
_EIG_CUTOFF = 1e-12


@dataclass(frozen=True)
class SuperpositionSpec:
    """Superposition weight xi in (0,1) and a finite relative phase phi, kept in [0, 2pi)."""

    xi: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.xi < 1.0:
            raise ValueError(f"xi must lie strictly inside (0, 1), got {self.xi}")
        if not np.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * np.pi))


def entanglement_entropy(xi: float) -> float:
    """-(1-xi) ln(1-xi) - xi ln(xi): the entropy the pair state starts with."""
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie strictly inside (0, 1), got {xi}")
    return float(-(1.0 - xi) * np.log(1.0 - xi) - xi * np.log(xi))


@dataclass(frozen=True)
class ReducedAtomPairMatrix:
    """Field-traced pair state at each time of a grid.

    Every field is a scalar, for one time, or an array over the times in
    ``time``.  ``coherence`` is the <1_A 0_B| rho |0_A 1_B> entry; its
    conjugate and the |11> population, zero for one excitation, complete it.
    """

    time: np.ndarray
    p_ground: np.ndarray
    p_b_excited: np.ndarray
    p_a_excited: np.ndarray
    coherence: np.ndarray

    def __post_init__(self):
        for name in ("p_ground", "p_b_excited", "p_a_excited"):
            v = np.asarray(getattr(self, name))
            require((-_TRACE_TOL <= v) & (v <= 1.0 + _TRACE_TOL), InvariantViolation,
                    name + " = {:.12g} outside [0, 1]", v, t=self.time)
        tr = self.p_ground + self.p_b_excited + self.p_a_excited
        require(abs(tr - 1.0) <= _TRACE_TOL, InvariantViolation,
                "trace {:.12f} deviates from 1", tr, t=self.time)
        # positive semidefiniteness of the single-excitation coherence block
        det = self.p_a_excited * self.p_b_excited - np.abs(self.coherence) ** 2
        require(det >= -_PSD_TOL, InvariantViolation,
                "coherence block determinant {:.3e} < 0", det, t=self.time)

    def as_matrix(self) -> np.ndarray:
        """Dense (..., 4, 4) matrices in the basis (|00>, |01>, |10>, |11>)."""
        m = np.zeros(np.shape(self.coherence) + (4, 4), dtype=complex)
        for i, p in enumerate((self.p_ground, self.p_b_excited, self.p_a_excited)):
            m[..., i, i] = p
        m[..., 2, 1] = self.coherence
        m[..., 1, 2] = np.conj(self.coherence)
        return m

    def purity(self):
        """Tr rho^2 straight from the matrix entries, at each time."""
        m = self.as_matrix()
        return np.einsum("...ij,...ji->...", m, m).real[()]


def reduced_pair_matrix(f_aa, f_bb, spec: SuperpositionSpec, t) -> ReducedAtomPairMatrix:
    """Assemble the pair reduced matrix from the two survival amplitudes.

    ``f_aa``, ``f_bb`` and ``t`` are values at one time or arrays over a grid.
    """
    f_aa, f_bb = np.asarray(f_aa, dtype=complex), np.asarray(f_bb, dtype=complex)
    # |f| by hypot and |f|^2 by one multiply: one time and a grid give the
    # same bits (numpy's array abs of a complex may differ in the last ulp)
    abs_a = np.hypot(f_aa.real, f_aa.imag)
    abs_b = np.hypot(f_bb.real, f_bb.imag)
    require((abs_a <= 1.0 + _TRACE_TOL) & (abs_b <= 1.0 + _TRACE_TOL), DomainError,
            "survival amplitudes must satisfy |f| <= 1, got "
            "|f_aa|={:.12f}, |f_bb|={:.12f}", abs_a, abs_b, t=t)
    xi = spec.xi
    pa = xi * (abs_a * abs_a)
    pb = (1.0 - xi) * (abs_b * abs_b)
    pg = 1.0 - pa - pb
    require(pg >= -_TRACE_TOL, DomainError,
            "ground population {:.3e} < 0: non-physical amplitudes", pg, t=t)
    # c conj(f_aa) f_bb as two scalar-order complex products in real
    # arithmetic; numpy's array complex multiply may fuse and round otherwise
    c = np.sqrt(xi * (1.0 - xi)) * np.exp(1j * spec.phi)
    re = c.real * f_aa.real + c.imag * f_aa.imag
    im = c.imag * f_aa.real - c.real * f_aa.imag
    coh = np.empty(np.broadcast_shapes(f_aa.shape, f_bb.shape), dtype=complex)
    coh.real = re * f_bb.real - im * f_bb.imag
    coh.imag = re * f_bb.imag + im * f_bb.real
    return ReducedAtomPairMatrix(time=np.asarray(t, dtype=float)[()], p_ground=pg,
                                 p_b_excited=pb, p_a_excited=pa, coherence=coh[()])


def impurity(m: ReducedAtomPairMatrix):
    """Degree of impurity D = 1 - Tr rho^2, at each time.

    Evaluated both from the matrix entries and from the closed form
    2 w (1 - w), w = rho_10,10 + rho_01,01; the two must agree to 1e-9.
    """
    w = m.p_a_excited + m.p_b_excited
    d_closed = 2.0 * w * (1.0 - w)
    d_matrix = 1.0 - m.purity()
    require(abs(d_closed - d_matrix) <= 1e-9, InvariantViolation,
            "impurity mismatch: closed form {:.15f} vs matrix {:.15f}", d_closed, d_matrix,
            t=m.time)
    return d_closed


def impurity_identical(f00: complex, spec: SuperpositionSpec) -> float:
    """Identical atoms: D = 2 |f00|^2 (1 - |f00|^2), xi and phi drop out."""
    u = abs(f00) ** 2
    require(u <= 1.0 + _TRACE_TOL, DomainError, "|f00|^2 = {:.12f} exceeds 1", u)
    return 2.0 * u * (1.0 - u)


@dataclass(frozen=True)
class SingleAtomReducedMatrix:
    """Pair state traced over atom B: rank two on top of the ground sector.

    ``amplitude_row`` holds f_A_nu(t) over nu = (atom, field modes): one
    row of length N+1 at one time, or a (T, N+1) block with a row per time
    of ``time``.  Its squared norm is the conserved excitation weight that
    makes the nonzero eigenvalues {1 - xi, xi} time independent.
    """

    time: np.ndarray
    xi: float
    amplitude_row: np.ndarray
    row_norm_sq: np.ndarray = field(init=False)

    def __post_init__(self):
        # a read-only view: the caller's array keeps its own flags
        row = np.asarray(self.amplitude_row, dtype=complex).view()
        row.setflags(write=False)
        object.__setattr__(self, "amplitude_row", row)
        s = np.sum(np.abs(row) ** 2, axis=-1)
        object.__setattr__(self, "row_norm_sq", s)
        if not 0.0 < self.xi < 1.0:
            raise ValueError(f"xi must lie strictly inside (0, 1), got {self.xi}")
        require(abs(s - 1.0) <= _ROW_NORM_TOL, InvariantViolation,
                "amplitude row norm {:.9f} deviates from 1 beyond {}", s, _ROW_NORM_TOL,
                t=self.time)

    def nonzero_eigenvalues(self) -> tuple:
        return 1.0 - self.xi, self.xi * self.row_norm_sq


def single_atom_reduced(f_row, spec: SuperpositionSpec, t) -> SingleAtomReducedMatrix:
    """Reduced state of atom A from its amplitude row at time t, or from a
    (T, N+1) block of rows at the T times in ``t``."""
    return SingleAtomReducedMatrix(time=np.asarray(t, dtype=float)[()], xi=spec.xi,
                                   amplitude_row=f_row)


def von_neumann_entropy(m: SingleAtomReducedMatrix):
    """-sum alpha ln alpha over the nonzero eigenvalues (0 ln 0 := 0), at each time."""
    total = 0.0
    for a in m.nonzero_eigenvalues():
        total = total - np.where(a > _EIG_CUTOFF, a * np.log(a), 0.0)
    return total
