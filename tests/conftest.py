"""Shared fixtures: sodium units and small grids for fast tests."""

import numpy as np
import pytest
# the opt-in --guard-reach option (see guard_reach.py)
from guard_reach import pytest_addoption, pytest_configure  # noqa: F401

from ramanvortex.units import (PhysicalParams, make_recoil_units,
                               SODIUM_MASS_KG, SODIUM_WAVELENGTH_M)
from ramanvortex.grid import Grid2D


@pytest.fixture(scope="session")
def sodium_params():
    return PhysicalParams(atomic_mass_kg=SODIUM_MASS_KG,
                          wavelength_m=SODIUM_WAVELENGTH_M)


@pytest.fixture(scope="session")
def units(sodium_params):
    return make_recoil_units(sodium_params)


@pytest.fixture(scope="session")
def grid64(units):
    return Grid2D(64, 64, 160.0e-6, 160.0e-6, units)


@pytest.fixture(scope="session")
def grid128(units):
    return Grid2D(128, 128, 160.0e-6, 160.0e-6, units)


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)
