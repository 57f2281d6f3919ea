"""Shared fixtures: the benchmark structures and their cached mode data."""

import numpy as np
import pytest
from hypothesis import settings

from latres import StructureParams
from latres.guided import continue_and_fit_dispersion, find_guided_modes

# property tests draw the same examples on every run, with no time limit per
# example and no saved examples replayed from earlier runs
settings.register_profile("latres", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("latres")

# critical coupling of the standing-mode bifurcation for the (2,1)-mass chain
GAMMA0_STAR = 1.0296335133904082


@pytest.fixture(scope="session")
def fixture1():
    """N=2 structure supporting a traveling embedded mode near (0.0617, 0.979)."""
    return StructureParams(N=2, masses=[2.0, 1.0], springs=[1.0, 1.0],
                           gammas=[1.0, 7.0])


@pytest.fixture(scope="session")
def uniform_coupling():
    """N=2 structure with equal couplings: supports no guided mode."""
    return StructureParams(N=2, masses=[2.0, 1.0], springs=[1.0, 1.0],
                           gammas=[1.0, 1.0])


@pytest.fixture(scope="session")
def decoupled():
    """Chain and lattice with the coupling switched off."""
    return StructureParams(N=2, masses=[2.0, 1.0], springs=[1.0, 1.0],
                           gammas=[0.0, 0.0])


@pytest.fixture(scope="session")
def n3_params():
    """N=3 structure with a mirror symmetry that pins an antisymmetric mode."""
    return StructureParams(N=3, masses=[1.0, 2.0, 2.0], springs=[1.0, 1.0, 1.0],
                           gammas=[1.0, 1.0, 1.0])


@pytest.fixture(scope="session")
def bif_params():
    """Fixture 1 with gamma_0 moved to the critical coupling (standing mode)."""
    return StructureParams(N=2, masses=[2.0, 1.0], springs=[1.0, 1.0],
                           gammas=[GAMMA0_STAR, 7.0])


@pytest.fixture(scope="session")
def mode1(fixture1):
    modes = find_guided_modes(fixture1, (0.02, 0.11, 0.93, 1.02), density=80)
    assert len(modes) == 1
    return modes[0]


@pytest.fixture(scope="session")
def fit1(fixture1, mode1):
    return continue_and_fit_dispersion(fixture1, mode1)


@pytest.fixture(scope="session")
def bif_mode(bif_params):
    modes = find_guided_modes(bif_params, (-0.02, 0.02, 0.96, 0.995), density=80)
    assert len(modes) == 1
    return modes[0]


@pytest.fixture(scope="session")
def bif_fit(bif_params, bif_mode):
    return continue_and_fit_dispersion(bif_params, bif_mode)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
