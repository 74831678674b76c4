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

The impurity D = 1 - Tr rho^2 = 2 w (1 - w) with
w = xi |f_AA|^2 + (1-xi) |f_BB|^2 measures how far the pair state has
drifted from purity; for identical atoms it collapses to
2 |f_00|^2 (1 - |f_00|^2), independent of xi and phi.

Tracing out atom B instead gives a single-atom reduced matrix of rank two
with eigenvalues {1 - xi, xi * sum_nu |f_A_nu|^2} = {1 - xi, xi}; the von
Neumann entropy built from them is therefore constant in time for any
cavity size, which is the invariant this module exists to expose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvariantViolation

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
    """Superposition weight xi in (0,1) and relative phase phi in [0, 2pi)."""

    xi: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.xi < 1.0:
            raise ValueError(f"xi must lie strictly inside (0, 1), got {self.xi}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * np.pi))


def entanglement_entropy(xi: float) -> float:
    """-(1-xi) ln(1-xi) - xi ln(xi): the entropy the pair state starts with."""
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie strictly inside (0, 1), got {xi}")
    return float(-(1.0 - xi) * np.log(1.0 - xi) - xi * np.log(xi))


@dataclass(frozen=True)
class ReducedAtomPairMatrix:
    """Field-traced pair state at one instant.

    ``coherence`` is the <1_A 0_B| rho |0_A 1_B> entry; its conjugate and
    the (fixed, zero) |11> population complete the matrix.
    """

    time: float
    p_ground: float
    p_b_excited: float
    p_a_excited: float
    coherence: complex
    p_both: float = 0.0

    def __post_init__(self):
        diag = (self.p_ground, self.p_b_excited, self.p_a_excited, self.p_both)
        for name, v in zip(("p_ground", "p_b_excited", "p_a_excited", "p_both"), diag):
            if not -_TRACE_TOL <= v <= 1.0 + _TRACE_TOL:
                raise InvariantViolation(f"{name} = {v:.12g} outside [0, 1]")
        tr = sum(diag)
        if abs(tr - 1.0) > _TRACE_TOL:
            raise InvariantViolation(f"trace {tr:.12f} deviates from 1")
        # positive semidefiniteness of the single-excitation coherence block
        det = self.p_a_excited * self.p_b_excited - abs(self.coherence) ** 2
        if det < -_PSD_TOL:
            raise InvariantViolation(f"coherence block determinant {det:.3e} < 0")

    def as_matrix(self) -> np.ndarray:
        """Dense 4x4 matrix in the basis (|00>, |01>, |10>, |11>)."""
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = self.p_ground
        m[1, 1] = self.p_b_excited
        m[2, 2] = self.p_a_excited
        m[3, 3] = self.p_both
        m[2, 1] = self.coherence
        m[1, 2] = np.conj(self.coherence)
        return m

    def purity(self) -> float:
        """Tr rho^2 straight from the matrix entries."""
        m = self.as_matrix()
        return float(np.real(np.trace(m @ m)))


def reduced_pair_matrix(f_aa: complex, f_bb: complex, spec: SuperpositionSpec,
                        t: float) -> ReducedAtomPairMatrix:
    """Assemble the pair reduced matrix from the two survival amplitudes."""
    if abs(f_aa) > 1.0 + _TRACE_TOL or abs(f_bb) > 1.0 + _TRACE_TOL:
        raise DomainError(
            f"survival amplitudes must satisfy |f| <= 1, got "
            f"|f_aa|={abs(f_aa):.12f}, |f_bb|={abs(f_bb):.12f}"
        )
    xi = spec.xi
    pa = xi * abs(f_aa) ** 2
    pb = (1.0 - xi) * abs(f_bb) ** 2
    pg = 1.0 - pa - pb
    if pg < -_TRACE_TOL:
        raise DomainError(f"ground population {pg:.3e} < 0: non-physical amplitudes")
    coh = np.sqrt(xi * (1.0 - xi)) * np.exp(1j * spec.phi) * np.conj(f_aa) * f_bb
    return ReducedAtomPairMatrix(time=float(t), p_ground=pg, p_b_excited=pb,
                                 p_a_excited=pa, coherence=complex(coh))


def impurity(m: ReducedAtomPairMatrix) -> float:
    """Degree of impurity D = 1 - Tr rho^2.

    Evaluated both from the matrix entries and from the closed form
    2 w (1 - w), w = rho_10,10 + rho_01,01; the two must agree to 1e-9.
    """
    w = m.p_a_excited + m.p_b_excited
    d_closed = 2.0 * w * (1.0 - w)
    d_matrix = 1.0 - m.purity()
    if abs(d_closed - d_matrix) > 1e-9:
        raise InvariantViolation(
            f"impurity mismatch: closed form {d_closed:.15f} vs matrix {d_matrix:.15f}"
        )
    return d_closed


def impurity_identical(f00: complex, spec: SuperpositionSpec) -> float:
    """Identical atoms: D = 2 |f00|^2 (1 - |f00|^2), xi and phi drop out."""
    u = abs(f00) ** 2
    if u > 1.0 + _TRACE_TOL:
        raise DomainError(f"|f00|^2 = {u:.12f} exceeds 1")
    return 2.0 * u * (1.0 - u)


@dataclass(frozen=True)
class SingleAtomReducedMatrix:
    """Pair state traced over atom B: rank two on top of the ground sector.

    ``amplitude_row`` holds f_A_nu(t) over nu = (atom, field modes); its
    squared norm is the conserved excitation weight that makes the nonzero
    eigenvalues {1 - xi, xi} time independent.
    """

    time: float
    xi: float
    amplitude_row: np.ndarray
    row_norm_sq: float = field(init=False)

    def __post_init__(self):
        row = np.asarray(self.amplitude_row, dtype=complex)
        row.setflags(write=False)
        object.__setattr__(self, "amplitude_row", row)
        s = float(np.sum(np.abs(row) ** 2))
        object.__setattr__(self, "row_norm_sq", s)
        if not 0.0 < self.xi < 1.0:
            raise ValueError(f"xi must lie strictly inside (0, 1), got {self.xi}")
        if abs(s - 1.0) > _ROW_NORM_TOL:
            raise InvariantViolation(
                f"amplitude row norm {s:.9f} deviates from 1 beyond {_ROW_NORM_TOL}"
            )

    def nonzero_eigenvalues(self) -> tuple[float, float]:
        return 1.0 - self.xi, self.xi * self.row_norm_sq

    def dense_matrix(self) -> np.ndarray:
        """(N+2) x (N+2) matrix: ground sector plus xi * f f^dagger block."""
        row = self.amplitude_row
        n = row.size
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[0, 0] = 1.0 - self.xi
        m[1:, 1:] = self.xi * np.outer(row, np.conj(row))
        return m


def single_atom_reduced(f_row, spec: SuperpositionSpec, t: float) -> SingleAtomReducedMatrix:
    """Reduced state of atom A from its amplitude row at time t."""
    return SingleAtomReducedMatrix(time=float(t), xi=spec.xi, amplitude_row=f_row)


def von_neumann_entropy(m: SingleAtomReducedMatrix) -> float:
    """-sum alpha ln alpha over the nonzero eigenvalues (0 ln 0 := 0)."""
    total = 0.0
    for a in m.nonzero_eigenvalues():
        if a > _EIG_CUTOFF:
            total -= a * np.log(a)
    return float(total)
