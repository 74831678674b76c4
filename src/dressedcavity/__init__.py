"""Exact dynamics of dressed atoms coupled to the modes of a spherical cavity.

The package solves the coupled atom-field normal-mode problem exactly at a
finite mode truncation, provides the free-space and small-cavity analytic
limits, builds the two-atom reduced density matrix with its impurity and
von Neumann entropy, and ships a brute-force diagonalization oracle that
cross-checks the whole pipeline.
"""

from .bipartite import (
    ReducedAtomPairMatrix,
    SingleAtomReducedMatrix,
    SuperpositionSpec,
    entanglement_entropy,
    entropy_drift_bound,
    impurity,
    impurity_identical,
    reduced_pair_matrix,
    single_atom_reduced,
    von_neumann_entropy,
)
from .coupling import (
    TransformMatrix,
    atom_element,
    atom_weights,
    build_matrix,
    row_index,
)
from .dynamics import (
    AmplitudeTrace,
    FreeSpaceParams,
    amplitude_discrete,
    amplitude_free_space,
    amplitude_row,
    amplitude_trace,
    first_order_modes,
    free_space_trace,
    imag_survival_integral,
    row_norm_rounding,
    small_cavity_amplitude,
    small_cavity_trace,
    survival_sq_large_time,
    survival_sq_lower_bound,
    survival_sq_small_cavity,
    survival_trace,
)
from .errors import (
    ConvergenceFailure,
    DomainError,
    InvariantViolation,
    NormalizationFailure,
    RegimeViolation,
    SimulationError,
)
from .oracle import (
    OracleDecomposition,
    QuadraticForm,
    build_form,
    diagonalize,
    oracle_amplitude,
    run_cross_checks,
)
from .spectrum import (
    DressedAtomParams,
    ModeSpectrum,
    cotangent_curves,
    cotangent_residual,
    field_frequencies,
    secular_residual,
    solve_eigenfrequencies,
)

__version__ = "0.1.0"
