import numpy as np
import pytest

from dressedcavity import DressedAtomParams, build_matrix, solve_eigenfrequencies

# Reference figure parameters: omega_bar=1, g=0.5, delta=0.1.
OMEGA_BAR = 1.0
G = 0.5
DELTA = 0.1


@pytest.fixture(scope="session")
def fig_params():
    return DressedAtomParams(OMEGA_BAR, G, DELTA, n_modes=200)


@pytest.fixture(scope="session")
def fig_spectrum(fig_params):
    return solve_eigenfrequencies(fig_params)


@pytest.fixture(scope="session")
def fig_matrix(fig_spectrum):
    return build_matrix(fig_spectrum)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
