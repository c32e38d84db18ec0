"""Photon-recoil unit system and the physical parameter record.

Everything inside the simulator runs in recoil units: lengths in 1/k,
energies in E_r = (hbar k)^2 / (2 M), times in hbar / E_r, with
k = 2 pi / wavelength.  In these units hbar = 1, the atomic mass is 1/2,
and the axial kinetic energy of an atom carrying 2 n photon recoils is
exactly 4 n^2.  SI values appear only in parameter records, configs and
reports; conversion happens through a UnitSystem built once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Planck constant, exact in the SI since 2019, and hbar = h / 2 pi; both are
# bitwise scipy.constants.h and .hbar, without importing that module.
h = 6.62607015e-34
hbar = h / (2.0 * math.pi)

# Sodium D line values used by the shipped presets.
SODIUM_MASS_KG = 3.8175e-26
SODIUM_WAVELENGTH_M = 589.0e-9


@dataclass(frozen=True)
class PhysicalParams:
    """Physical inputs of a run, all SI.

    Fields:
        atomic_mass_kg: atomic mass M.
        wavelength_m: optical wavelength setting the recoil scale.
    """

    atomic_mass_kg: float
    wavelength_m: float

    def __post_init__(self):
        if not 0.0 < self.atomic_mass_kg < math.inf:
            raise ValueError("atomic_mass_kg must be finite and positive")
        if not 0.0 < self.wavelength_m < math.inf:
            raise ValueError("wavelength_m must be finite and positive")


@dataclass(frozen=True)
class UnitSystem:
    """Recoil unit scales and converters for one choice of (M, lambda).

    Fields:
        wavenumber_per_m: k = 2 pi / lambda.
        length_m: one internal length in meters (1/k).
        energy_j: one internal energy in joules (E_r).
        time_s: one internal time in seconds (hbar/E_r).
        recoil_frequency_hz: nu_r = E_r / h.
        mass_kg: the atomic mass the system was built from.
    """

    wavenumber_per_m: float
    length_m: float
    energy_j: float
    time_s: float
    recoil_frequency_hz: float
    mass_kg: float

    # Times
    def time_to_internal(self, t_s: float) -> float:
        return t_s / self.time_s

    def time_to_si(self, t: float) -> float:
        return t * self.time_s

    # Energies
    def energy_to_si(self, e: float) -> float:
        return e * self.energy_j

    # Angular rates (rad/s) to phase per internal time
    def rate_to_internal(self, omega_rad_s: float) -> float:
        return omega_rad_s * self.time_s

    # 2D interaction coupling (J m^2) to recoil units (E_r / k^2)
    def coupling2d_to_internal(self, g_j_m2: float) -> float:
        return g_j_m2 / (self.energy_j * self.length_m**2)

    def coupling2d_to_si(self, g: float) -> float:
        return g * self.energy_j * self.length_m**2

    def trap_omega_internal(self, nu_hz: float) -> float:
        """Angular trap frequency 2 pi nu expressed per internal time."""
        return self.rate_to_internal(2.0 * math.pi * nu_hz)


def make_recoil_units(params: PhysicalParams) -> UnitSystem:
    """Build the recoil unit system for the given mass and wavelength."""
    k = 2.0 * math.pi / params.wavelength_m
    recoil_energy = (hbar * k) ** 2 / (2.0 * params.atomic_mass_kg)
    return UnitSystem(
        wavenumber_per_m=k,
        length_m=1.0 / k,
        energy_j=recoil_energy,
        time_s=hbar / recoil_energy,
        recoil_frequency_hz=recoil_energy / h,
        mass_kg=params.atomic_mass_kg,
    )
