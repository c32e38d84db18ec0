"""Recoil unit system: frozen oracles and round-trip exactness."""

import math

import pytest

from ramanvortex.units import (PhysicalParams, make_recoil_units,
                               SODIUM_MASS_KG, SODIUM_WAVELENGTH_M)

# Oracle computed by direct arithmetic from the exact SI definition
# h = 6.62607015e-34 (hbar = h / 2 pi), M = 3.8175e-26 kg,
# lambda = 589.0 nm, before the implementation existed:
#   k = 2 pi / lambda = 10667547.210831216 1/m
#   E_r = (hbar k)^2 / (2 M) = 1.6575720990460746e-29 J
#   nu_r = E_r / h = 25015.91533929164 Hz  (so 4 nu_r ~ 100.06 kHz)
NU_R_SODIUM_HZ = 25015.91533929164
E_R_SODIUM_J = 1.6575720990460746e-29
K_SODIUM_PER_M = 10667547.210831216


@pytest.fixture(scope="module")
def sodium_units():
    params = PhysicalParams(atomic_mass_kg=SODIUM_MASS_KG,
                            wavelength_m=SODIUM_WAVELENGTH_M)
    return make_recoil_units(params)


def test_recoil_frequency_matches_direct_arithmetic(sodium_units):
    assert sodium_units.recoil_frequency_hz == pytest.approx(NU_R_SODIUM_HZ, rel=1e-12)
    assert sodium_units.energy_j == pytest.approx(E_R_SODIUM_J, rel=1e-12)
    assert sodium_units.wavenumber_per_m == pytest.approx(K_SODIUM_PER_M, rel=1e-12)


def test_four_recoils_is_about_100_khz(sodium_units):
    assert abs(4.0 * sodium_units.recoil_frequency_hz - 1.0e5) / 1.0e5 < 0.01


def test_unit_relations(sodium_units):
    u = sodium_units
    # hbar = time unit * energy unit
    assert u.time_s * u.energy_j == pytest.approx(1.054571817e-34, rel=1e-9)
    # length unit is 1/k
    assert u.length_m * u.wavenumber_per_m == pytest.approx(1.0, rel=1e-15)
    assert u.energy_to_internal(u.energy_j) == pytest.approx(1.0, rel=1e-15)
    assert u.frequency_to_recoils(u.recoil_frequency_hz) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("value", [1.0e-6, 3.3333e-4, 589.0e-9, 42.0])
def test_length_round_trip_exact(sodium_units, value):
    u = sodium_units
    assert u.length_to_si(u.length_to_internal(value)) == pytest.approx(value, rel=1e-14)
    assert u.length_to_internal(u.length_to_si(value)) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("value", [1.3e-4, 6.0e-3, 130.0e-6])
def test_time_round_trip_exact(sodium_units, value):
    u = sodium_units
    assert u.time_to_si(u.time_to_internal(value)) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("value", [2.1e4, 1.0, 7.7e5])
def test_rate_and_coupling_round_trips(sodium_units, value):
    u = sodium_units
    assert u.rate_to_si(u.rate_to_internal(value)) == pytest.approx(value, rel=1e-14)
    assert u.coupling2d_to_si(u.coupling2d_to_internal(value)) == pytest.approx(value, rel=1e-14)


def test_trap_omega_internal_equals_frequency_ratio(sodium_units):
    u = sodium_units
    nu = 40.0
    assert u.trap_omega_internal(nu) == pytest.approx(nu / u.recoil_frequency_hz, rel=1e-13)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(atomic_mass_kg=-1.0, wavelength_m=589e-9)
    with pytest.raises(ValueError):
        PhysicalParams(atomic_mass_kg=SODIUM_MASS_KG, wavelength_m=0.0)


def test_planck_constants_match_scipy():
    import scipy.constants

    from ramanvortex import units
    assert units.h == scipy.constants.h
    assert units.hbar == scipy.constants.hbar
