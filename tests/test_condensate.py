"""Ground-state preparation: analytic profile, relaxation, calibration.

SI oracles, independent of the internal unit system:
  - TF chemical potential at the cloud edge: mu = M/2 (2 pi nu_y R_y)^2.
  - Non-interacting ground-state energy: hbar/2 (omega_y + omega_z)
    = pi hbar (nu_y + nu_z).
"""

import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import hbar

from ramanvortex import condensate
from ramanvortex.errors import (ConvergenceError, SimulationError,
                                StepSizeError)
from ramanvortex.condensate import (GroundState, TrapSpec, _tf_radii_m,
                                    g2d_from_tf_radius, gaussian_profile,
                                    gpe_energy, relax_ground_state,
                                    thomas_fermi_profile)
from ramanvortex.grid import (Grid2D, TransverseField, _fft2_stack,
                              _ifft2_stack)

NU_Y = 40.0 / math.sqrt(2.0)
NU_Z = 40.0
RADIUS_Y = 30e-6


@pytest.fixture(scope="module")
def trap():
    return TrapSpec(NU_Y, NU_Z)


@pytest.fixture(scope="module")
def g2d(trap, units):
    return g2d_from_tf_radius(trap, RADIUS_Y, units)


@pytest.fixture(scope="module")
def relaxed(trap, g2d, grid128):
    seed = thomas_fermi_profile(trap, g2d, grid128)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(condensate, "_RELAX_TOL", 1e-10)
        return relax_ground_state(seed, trap, g2d)


def energy_reads(monkeypatch) -> list:
    """The energy (internal units) of every state the relaxation reads,
    in the order read; with _STOP_CHECK_EVERY at 1 that is the seed and
    then every step."""
    energies = []
    original = condensate._energies

    def spy(*args):
        e_kin, e_pot, e_int2, rows = original(*args)
        energies.append(e_kin + e_pot + 0.5 * e_int2)
        return e_kin, e_pot, e_int2, rows

    monkeypatch.setattr(condensate, "_energies", spy)
    return energies


class TestThomasFermi:
    def test_chemical_potential_matches_edge_condition(self, trap, g2d,
                                                       grid128, units):
        gs = thomas_fermi_profile(trap, g2d, grid128)
        mu_si = 0.5 * units.mass_kg * (2 * math.pi * NU_Y * RADIUS_Y) ** 2
        assert gs.chemical_potential_j == pytest.approx(mu_si, rel=1e-12,
                                                        abs=0)
        assert gs.tf_radii_m[0] == pytest.approx(RADIUS_Y, rel=1e-12)
        # nu_z = sqrt(2) nu_y, so R_z = R_y / sqrt(2): the 30/21 um pair.
        assert gs.tf_radii_m[1] == pytest.approx(RADIUS_Y / math.sqrt(2.0),
                                                 rel=1e-12)
        assert gs.tf_radii_m[1] == pytest.approx(21.2e-6, rel=5e-3)

    def test_isotropic_trap_gives_equal_radii(self, g2d, grid128):
        gs = thomas_fermi_profile(TrapSpec(30.0, 30.0), g2d, grid128)
        assert gs.tf_radii_m[0] == gs.tf_radii_m[1]

    def test_mu_scales_as_sqrt_g(self, trap, g2d, grid128):
        mu1 = thomas_fermi_profile(trap, g2d, grid128).chemical_potential_j
        mu2 = thomas_fermi_profile(trap, 2 * g2d, grid128).chemical_potential_j
        assert mu2 / mu1 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_analytic_density_quadrature_is_normalized(self, trap, g2d,
                                                       grid128, units):
        # The stated mu must normalize the continuum inverted parabola;
        # checked by direct quadrature before any renormalization.
        g = units.coupling2d_to_internal(g2d)
        mu = units.energy_to_internal(
            thomas_fermi_profile(trap, g2d, grid128).chemical_potential_j)
        density = np.maximum(0.0, mu - trap.potential_internal(grid128)) / g
        assert np.sum(density) * grid128.cell_area == pytest.approx(
            1.0, rel=2e-3)

    def test_grid_field_is_unit_norm(self, trap, g2d, grid128):
        gs = thomas_fermi_profile(trap, g2d, grid128)
        assert gs.field.norm() == pytest.approx(1.0, abs=1e-12)

    def test_radii_shrink_inversely_with_frequency_at_fixed_mu(self, trap,
                                                               g2d, grid128):
        # Doubling both frequencies at g/4 keeps mu fixed; radii halve.
        a = thomas_fermi_profile(trap, g2d, grid128)
        b = thomas_fermi_profile(TrapSpec(2 * NU_Y, 2 * NU_Z), g2d / 4.0,
                                 grid128)
        assert b.chemical_potential_j == pytest.approx(
            a.chemical_potential_j, rel=1e-12, abs=0)
        assert b.tf_radii_m[0] == pytest.approx(a.tf_radii_m[0] / 2, rel=1e-12)
        assert b.tf_radii_m[1] == pytest.approx(a.tf_radii_m[1] / 2, rel=1e-12)

    def test_bad_inputs_rejected(self, trap, g2d, grid128, units):
        with pytest.raises(SimulationError):
            thomas_fermi_profile(trap, 0.0, grid128)
        with pytest.raises(SimulationError):
            thomas_fermi_profile(TrapSpec(0.0, NU_Z), g2d, grid128)
        with pytest.raises(SimulationError):
            g2d_from_tf_radius(trap, -1e-6, units)
        with pytest.raises(SimulationError):
            TrapSpec(-1.0, 40.0)


class TestGaussianSeed:
    def test_noninteracting_energy(self, trap, grid128):
        gs = gaussian_profile(trap, grid128)
        e0 = math.pi * hbar * (NU_Y + NU_Z)
        assert gpe_energy(gs.field, trap, 0.0) == pytest.approx(e0, rel=1e-9,
                                                                abs=0)
        assert gs.chemical_potential_j == pytest.approx(e0, rel=1e-12, abs=0)

    def test_unit_norm(self, trap, grid128):
        assert gaussian_profile(trap, grid128).field.norm() == pytest.approx(
            1.0, abs=1e-12)


class TestRelaxation:
    def test_reaches_noninteracting_ground_state(self, trap, grid128,
                                                 monkeypatch):
        # Seed with the ground state of a stiffer trap: wrong width, same
        # symmetry; relaxation must find the true minimum to 0.1%.
        seed = gaussian_profile(TrapSpec(2 * NU_Y, 2 * NU_Z), grid128)
        monkeypatch.setattr(condensate, "_RELAX_DT_S", 3e-6)
        out = relax_ground_state(seed, trap, 0.0)
        e0 = math.pi * hbar * (NU_Y + NU_Z)
        assert gpe_energy(out.field, trap, 0.0) == pytest.approx(e0, rel=1e-3,
                                                                 abs=0)

    def test_energy_never_increases(self, trap, g2d, grid128, monkeypatch):
        seed = thomas_fermi_profile(trap, g2d, grid128)
        monkeypatch.setattr(condensate, "_STOP_CHECK_EVERY", 1)
        monkeypatch.setattr(condensate, "_RELAX_TOL", 1e-8)
        log = energy_reads(monkeypatch)
        relax_ground_state(seed, trap, g2d)
        # the seed's energy, then every step's
        energies = np.array(log)
        assert len(energies) > 3
        rises = np.diff(energies) / np.abs(energies[:-1])
        assert rises.max() <= 1e-12

    def test_converged_mu_close_to_analytic(self, relaxed, trap, g2d,
                                            grid128):
        analytic = thomas_fermi_profile(trap, g2d, grid128)
        assert relaxed.chemical_potential_j == pytest.approx(
            analytic.chemical_potential_j, rel=0.05, abs=0)
        assert relaxed.field.norm() == pytest.approx(1.0, abs=1e-9)

    def test_relaxed_energy_below_seed(self, relaxed, trap, g2d, grid128):
        seed = thomas_fermi_profile(trap, g2d, grid128)
        assert gpe_energy(relaxed.field, trap, g2d) < gpe_energy(
            seed.field, trap, g2d)

    def test_phase_zero_at_peak(self, relaxed):
        vals = relaxed.field.values
        peak = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
        assert abs(np.angle(vals[peak])) < 1e-12
        assert np.abs(vals.imag).max() < 1e-9

    def test_converged_state_is_stationary(self, relaxed, trap, g2d,
                                           grid128, units):
        # One real-time split step barely moves the density.
        dt = units.time_to_internal(5e-7)
        g = units.coupling2d_to_internal(g2d)
        half_kin = np.exp(-0.5j * dt * grid128.mesh_ksq)
        psi = relaxed.field.values
        rho = np.abs(psi) ** 2
        psi = _ifft2_stack(half_kin * _fft2_stack(psi.copy()))
        psi = psi * np.exp(-1j * dt * (trap.potential_internal(grid128)
                                       + g * np.abs(psi) ** 2))
        psi = _ifft2_stack(half_kin * _fft2_stack(psi))
        change = np.linalg.norm(np.abs(psi) ** 2 - rho) / np.linalg.norm(rho)
        assert change < 1e-6

    # an inf pixel spreads as inf * 0 = nan through the spectrum
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_seed_raises_at_once(self, trap, g2d, units, bad,
                                            monkeypatch):
        grid32 = Grid2D(32, 32, 160e-6, 160e-6, units)
        seed = thomas_fermi_profile(trap, g2d, grid32)
        values = seed.field.values.copy()
        values[16, 16] = bad
        bad_seed = GroundState(TransverseField(grid32, values),
                               seed.chemical_potential_j, seed.tf_radii_m)
        log = energy_reads(monkeypatch)
        with pytest.raises(SimulationError, match="NaN or inf"):
            relax_ground_state(bad_seed, trap, g2d)
        assert log == []

    def test_logs_steps_and_final_change_against_tol(self, trap, g2d, units,
                                                     caplog, monkeypatch):
        grid32 = Grid2D(32, 32, 160e-6, 160e-6, units)
        seed = thomas_fermi_profile(trap, g2d, grid32)
        monkeypatch.setattr(condensate, "_STOP_CHECK_EVERY", 1)
        monkeypatch.setattr(condensate, "_RELAX_TOL", 1e-6)
        log = energy_reads(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.condensate"):
            relax_ground_state(seed, trap, g2d)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        # the seed's energy and one per step
        assert f"in {len(log) - 1} steps" in record.getMessage()
        assert "dt 2e-06 s" in record.getMessage()
        assert "< tol 1e-06" in record.getMessage()

    def test_budget_exhaustion_reported(self, trap, g2d, units, monkeypatch):
        # tol 0 never stops on the energy; the message names the change
        # at the last step whether the energy is read at every step or
        # every K, and the budget falls on a check at both
        seed = thomas_fermi_profile(trap, g2d,
                                    Grid2D(32, 32, 160e-6, 160e-6, units))
        monkeypatch.setattr(condensate, "_RELAX_MAX_STEPS", 32)
        monkeypatch.setattr(condensate, "_RELAX_TOL", 0.0)
        monkeypatch.setattr(condensate, "_STOP_CHECK_EVERY", 1)
        log = energy_reads(monkeypatch)
        with pytest.raises(ConvergenceError) as every_step:
            relax_ground_state(seed, trap, g2d)
        assert len(log) == 33
        change = abs(log[-1] - log[-2]) / abs(log[-1])
        assert str(every_step.value) == (
            f"ground state not converged after 32 steps; last relative "
            f"energy change {change:.3g} (tol 0)")
        monkeypatch.setattr(condensate, "_STOP_CHECK_EVERY", 16)
        with pytest.raises(ConvergenceError) as checked:
            relax_ground_state(seed, trap, g2d)
        assert str(checked.value) == str(every_step.value)

    def test_budget_is_imaginary_time_not_steps(self, trap, g2d, units,
                                                 monkeypatch):
        # 32^2 over 10 um has the pitch at which 2 us halves once (dt *
        # ksq_max 0.56 at 2 us); over 20 um it does not.  The halved step
        # gets twice the steps, the same flow time.
        monkeypatch.setattr(condensate, "_RELAX_MAX_STEPS", 32)
        monkeypatch.setattr(condensate, "_RELAX_TOL", 0.0)
        for extent, budget in ((20e-6, 32), (10e-6, 64)):
            grid = Grid2D(32, 32, extent, extent, units)
            seed = thomas_fermi_profile(trap, g2d, grid)
            with pytest.raises(ConvergenceError,
                               match=f"after {budget} steps;"):
                relax_ground_state(seed, trap, g2d)

    @pytest.mark.parametrize("option", ["dt_s", "tol", "max_steps",
                                        "energy_log"])
    def test_takes_no_options(self, trap, g2d, units, option):
        # the step follows from the grid, the rest are module constants
        seed = thomas_fermi_profile(trap, g2d,
                                    Grid2D(32, 32, 160e-6, 160e-6, units))
        with pytest.raises(TypeError, match=option):
            relax_ground_state(seed, trap, g2d, **{option: None})

    def test_budget_falls_on_a_check(self):
        assert (condensate._RELAX_MAX_STEPS
                % condensate._STOP_CHECK_EVERY == 0)

    def test_step_halves_where_two_microseconds_is_unstable(
            self, units, caplog, monkeypatch):
        # the pitch of 512^2 over 160 um, where 2 us puts dt * ksq_max at
        # 0.56, on 64^2 over 20 um with a 6 um cloud; the trap is ten
        # times stiffer than TRAP's so that the flow converges in 763 steps
        grid = Grid2D(64, 64, 20e-6, 20e-6, units)
        trap = TrapSpec(10 * NU_Y, 10 * NU_Z)
        g = g2d_from_tf_radius(trap, 6e-6, units)
        seed = thomas_fermi_profile(trap, g, grid)
        out, steps, _, dt, _ = _relax_with_record(seed, trap, g, caplog)
        assert dt == "1e-06"
        reference_log = []
        reference = reference_relax_ground_state(seed, trap, g, dt_s=1e-6,
                                                 energy_log=reference_log)
        assert steps == len(reference_log)
        diff = out.field.values - reference.field.values
        assert math.sqrt(np.sum(np.abs(diff) ** 2) * grid.cell_area) < 1e-12


# The earlier stand-alone relaxation, verbatim apart from the names: two
# unmerged kinetic half-steps, a position-space renormalisation and a
# forward FFT for the energy per step, 5 N + 1 FFTs in all.  It is the
# oracle for relaxation through the shared split-step loop.
def _reference_split_energies(values, potential, g, grid):
    spec = _fft2_stack(values.copy())
    dens = np.abs(values) ** 2
    e_kin = float(np.sum(grid.mesh_ksq * np.abs(spec) ** 2) * grid.cell_area)
    e_pot = float(np.sum(potential * dens) * grid.cell_area)
    quartic = float(np.sum(dens * dens) * grid.cell_area)
    return e_kin, e_pot, g * quartic


def reference_relax_ground_state(seed, trap, g2d_j_m2, dt_s=2e-6, tol=1e-9,
                                 max_steps=10000, energy_log=None):
    grid = seed.field.grid
    units = grid.units
    g = units.coupling2d_to_internal(g2d_j_m2)
    dt = units.time_to_internal(dt_s)
    potential = trap.potential_internal(grid)
    stiffest = max(float(potential.max()), float(grid.mesh_ksq.max()))
    if dt <= 0.0 or dt * stiffest >= 0.5:
        raise StepSizeError(
            f"imaginary-time step {dt_s} s is unstable here: "
            f"dt * stiffest rate = {dt * stiffest:.3g} >= 0.5")

    half_kin = np.exp(-0.5 * dt * grid.mesh_ksq)
    psi = seed.field.values.copy()
    e_kin, e_pot, e_int2 = _reference_split_energies(psi, potential, g, grid)
    energy = e_kin + e_pot + 0.5 * e_int2
    residual = math.inf
    for _ in range(max_steps):
        psi = _ifft2_stack(half_kin * _fft2_stack(psi))
        psi *= np.exp(-dt * (potential + g * np.abs(psi) ** 2))
        psi = _ifft2_stack(half_kin * _fft2_stack(psi))
        psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_area)
        e_kin, e_pot, e_int2 = _reference_split_energies(psi, potential, g,
                                                         grid)
        new_energy = e_kin + e_pot + 0.5 * e_int2
        if energy_log is not None:
            energy_log.append(new_energy)
        residual = abs(new_energy - energy) / max(abs(new_energy), 1e-300)
        energy = new_energy
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"ground state not converged after {max_steps} steps; "
            f"last relative energy change {residual:.3g} (tol {tol:g})")

    # Fix the global phase to 0 at the density peak.
    peak = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
    psi *= np.exp(-1j * np.angle(psi[peak]))
    mu = e_kin + e_pot + e_int2
    wy, wz = trap.omegas_internal(units)
    return GroundState(TransverseField(grid, psi), units.energy_to_si(mu),
                       _tf_radii_m(mu, wy, wz, units))


REFERENCE_CASES = ["thomas_fermi", "gaussian_g0", "complex_seed",
                   "grid_64x32", "grid_32x64"]


def _reference_case(case, trap, g2d, grid64, units):
    """Seed, g2d and dt_s of one of REFERENCE_CASES."""
    grid = {"grid_64x32": Grid2D(64, 32, 160e-6, 80e-6, units),
            "grid_32x64": Grid2D(32, 64, 80e-6, 160e-6, units),
            }.get(case, grid64)
    seed, g, dt_s = thomas_fermi_profile(trap, g2d, grid), g2d, 2e-6
    if case == "gaussian_g0":
        seed = gaussian_profile(TrapSpec(2 * NU_Y, 2 * NU_Z), grid)
        g, dt_s = 0.0, 3e-6
    elif case == "complex_seed":
        # a global phase and a gentle ramp along y; a steep ramp puts
        # weight in the dipole mode, which the flow damps only at the
        # trap frequency, too slowly to reach tol in max_steps
        ramp = np.exp(1j * (0.3 + 0.01 * grid.y_m[None, :] / RADIUS_Y))
        seed = GroundState(TransverseField(grid, seed.field.values * ramp),
                           seed.chemical_potential_j, seed.tf_radii_m)
    return seed, g, dt_s


class TestRelaxationMatchesReference:
    """The real-row loop against the complex-arithmetic reference: a real
    seed is one row, a complex one two, and the half spectrum runs along
    y, so non-square grids check that its axis is the right one."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_same_steps_and_state(self, case, trap, g2d, grid64, units,
                                  caplog, monkeypatch):
        seed, g, dt_s = _reference_case(case, trap, g2d, grid64, units)
        grid = seed.field.grid
        reference_log = []
        monkeypatch.setattr(condensate, "_RELAX_DT_S", dt_s)
        out, steps, _, _, _ = _relax_with_record(seed, trap, g, caplog)
        reference = reference_relax_ground_state(seed, trap, g, dt_s=dt_s,
                                                 energy_log=reference_log)
        assert steps == len(reference_log)
        diff = out.field.values - reference.field.values
        assert math.sqrt(np.sum(np.abs(diff) ** 2) * grid.cell_area) < 1e-12
        assert out.chemical_potential_j == pytest.approx(
            reference.chemical_potential_j, rel=1e-12, abs=0)

    def test_gpe_energy_of_a_vortex(self, trap, g2d, grid64, units):
        # charge 1 with a linear core: (y + i z) times the Thomas-Fermi
        # amplitude, so the field has two real rows
        tf = thomas_fermi_profile(trap, g2d, grid64).field.values
        field = TransverseField(
            grid64, tf * (grid64.mesh_y + 1j * grid64.mesh_z)).normalized()
        g = units.coupling2d_to_internal(g2d)
        e_kin, e_pot, e_int2 = _reference_split_energies(
            field.values, trap.potential_internal(grid64), g, grid64)
        assert gpe_energy(field, trap, g2d) == pytest.approx(
            units.energy_to_si(e_kin + e_pot + 0.5 * e_int2), rel=1e-12,
            abs=0)


def _relax_with_record(seed, trap, g, caplog):
    """The relaxed state and the parts of its DEBUG record: step count,
    energies read, the step in s as printed, and the change against
    tol."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ramanvortex.condensate"):
        out = relax_ground_state(seed, trap, g)
    (record,) = caplog.records
    steps, reads, dt, rest = re.fullmatch(
        r"ground state relaxed in (\d+) steps \(energy read at (\d+)\), "
        r"dt (\S+) s: (relative energy change .* < tol .*)",
        record.getMessage()).groups()
    return out, int(steps), int(reads), dt, rest


class TestStopCheckedEveryKSteps:
    """The stop test reads the energy every _STOP_CHECK_EVERY steps and
    searches the last window for the first step under tol; at K = 1 it
    reads every step.  Both must give the same state, bit for bit, the
    same step count and the same change against tol."""

    @pytest.fixture(scope="class")
    def every_step(self):
        # case -> (state, steps, reads, rest) read at every step
        return {}

    @pytest.mark.parametrize("every", [8, 16])
    @pytest.mark.parametrize("case", REFERENCE_CASES + ["grid_128"])
    def test_same_state_steps_and_record_as_every_step(
            self, case, every, every_step, trap, g2d, grid64, grid128,
            units, caplog, monkeypatch):
        if case == "grid_128":
            # double_charge_128's ground state: 2104 steps, on a check at
            # every 8 (2104 = 263 * 8), in the middle of a window at 16
            seed, g, dt_s = thomas_fermi_profile(trap, g2d, grid128), g2d, 2e-6
        else:
            seed, g, dt_s = _reference_case(case, trap, g2d, grid64, units)
        monkeypatch.setattr(condensate, "_RELAX_DT_S", dt_s)
        if case not in every_step:
            monkeypatch.setattr(condensate, "_STOP_CHECK_EVERY", 1)
            every_step[case] = _relax_with_record(seed, trap, g, caplog)
        expected, steps, reads, dt, rest = every_step[case]
        assert reads == steps + 1
        if case == "grid_128":
            assert (steps, dt) == (2104, "2e-06")

        monkeypatch.setattr(condensate, "_STOP_CHECK_EVERY", every)
        out, out_steps, out_reads, out_dt, out_rest = _relax_with_record(
            seed, trap, g, caplog)
        assert np.array_equal(out.field.values, expected.field.values)
        assert out.chemical_potential_j == expected.chemical_potential_j
        assert out.tf_radii_m == expected.tf_radii_m
        assert (out_steps, out_dt, out_rest) == (steps, dt, rest)
        # the two steps of each check, the seed, and one window's search
        assert out_reads <= 2 * (steps // every + 1) + every + 1

    def test_holds_one_ring_of_k_half_spectra_and_a_stated_slack(
            self, trap, g2d, grid128, monkeypatch):
        # Measured at 128^2, K = 16, in half spectra of one real row
        # (133 kB): the peak is K + 11.9 (10.9 at K = 1, the loop before
        # the ring).  When the first check reads its energies the loop
        # holds 5.0 beside the ring: the trap, the half plane's weights
        # and kinetic factors, the two kinetic steps and the step's
        # spectrum.  The window's states kept as K arrays of their own
        # hold the same bytes, but read 21.0 there.
        seed = thomas_fermi_profile(trap, g2d, grid128)
        half = 16 * grid128.n_z * (grid128.n_y // 2 + 1)
        every = condensate._STOP_CHECK_EVERY
        energies = condensate._energies
        beside_ring = []

        def spy(*args):
            # the second read is the first check's: the ring is full
            beside_ring.append(sum(
                b.size for b in tracemalloc.take_snapshot().traces
                if b.size < every * half) if len(beside_ring) == 1 else None)
            return energies(*args)

        tracemalloc.start()
        try:
            relax_ground_state(seed, trap, g2d)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            monkeypatch.setattr(condensate, "_energies", spy)
            relax_ground_state(seed, trap, g2d)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (every + 12.5) * half, peak / half
        assert beside_ring[1] <= 7 * half, beside_ring[1] / half


# Relaxes a 128^2 Thomas-Fermi seed and prints a digest of the result and,
# from the relaxation's DEBUG record, its step count; at 32^2 the
# reductions are too short for OpenBLAS to split them.
_RELAX_AND_DIGEST = """
import hashlib, logging, math, re
from ramanvortex.condensate import (TrapSpec, g2d_from_tf_radius,
                                    relax_ground_state, thomas_fermi_profile)
from ramanvortex.grid import Grid2D
from ramanvortex.units import (SODIUM_MASS_KG, SODIUM_WAVELENGTH_M,
                               PhysicalParams, make_recoil_units)
units = make_recoil_units(PhysicalParams(SODIUM_MASS_KG, SODIUM_WAVELENGTH_M))
grid = Grid2D(128, 128, 160e-6, 160e-6, units)
trap = TrapSpec(40.0 / math.sqrt(2.0), 40.0)
g2d = g2d_from_tf_radius(trap, 30e-6, units)
records = []
handler = logging.Handler()
handler.emit = records.append
log = logging.getLogger("ramanvortex.condensate")
log.setLevel(logging.DEBUG)
log.addHandler(handler)
out = relax_ground_state(thomas_fermi_profile(trap, g2d, grid), trap, g2d)
(record,) = records
print(hashlib.sha256(out.field.values.tobytes()).hexdigest(),
      repr(out.chemical_potential_j))
print(re.search(r"relaxed in (\\d+) steps", record.getMessage()).group(1))
"""


def test_relaxation_is_the_same_at_one_and_two_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _RELAX_AND_DIGEST],
                             env=env, capture_output=True, text=True,
                             check=True)
        digest, steps = run.stdout.splitlines()
        digests.append(digest)
        # the last step's energy change, 9.98e-10, sits just under tol
        # 1e-9, so a rounding-level change to the loop can add a step
        assert steps == "2104"
    assert digests[0] == digests[1]
