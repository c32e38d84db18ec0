"""Trapped ground-state preparation for the 2D transverse model.

The interaction strength is not derived from 3D scattering theory; it is
calibrated so the Thomas-Fermi cloud has a chosen transverse radius, which
pins the reduced model to the observable geometry.  In recoil units the
effective mass is 1/2, the trap reads V = (omega_y^2 y^2 + omega_z^2 z^2)/4
and the 2D Thomas-Fermi normalization gives

    mu = sqrt(g * omega_y * omega_z / (2 pi)),   R_i = 2 sqrt(mu) / omega_i.

relax_ground_state refines a seed by the same split-step loop that pulses
use (grid._strang_steps), run in imaginary time and renormalised after each
step.  Its step (2 us, halved where the grid needs it), tolerance and
budget are module constants, not options.  Imaginary time has only real
operators, so the state runs as real rows (_real_rows) through
half-spectrum FFTs and becomes complex again only at the final phase fix.
_energies is the one energy formula, read from the rows' half spectrum and
shared with gpe_energy.  The stop test reads the energy every
_STOP_CHECK_EVERY (K) steps, from a ring of the window's spectra, so N
steps cost about 2 N (1 + 1/K) real FFTs.  N counts the steps run, not the
step that stops: the flow runs on to the end of the window of K in which it
stops, up to K - 1 steps past it (2112 steps for the stop at 2104 on
double_charge_128's 128^2 grid).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SimulationError
from .grid import (Grid2D, TransverseField, _fft2_stack, _ifft2_stack,
                   _strang_steps)
from .units import UnitSystem

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrapSpec:
    """Transverse harmonic trap, V = M/2 [(2 pi nu_y y)^2 + (2 pi nu_z z)^2]."""

    nu_y_hz: float
    nu_z_hz: float

    def __post_init__(self):
        if not (0.0 <= self.nu_y_hz < math.inf
                and 0.0 <= self.nu_z_hz < math.inf):
            raise SimulationError("trap frequencies must be finite and "
                                  "nonnegative")

    def omegas_internal(self, units: UnitSystem) -> tuple[float, float]:
        return (units.trap_omega_internal(self.nu_y_hz),
                units.trap_omega_internal(self.nu_z_hz))

    def potential_internal(self, grid: Grid2D) -> np.ndarray:
        wy, wz = self.omegas_internal(grid.units)
        return 0.25 * ((wy * grid.mesh_y) ** 2 + (wz * grid.mesh_z) ** 2)


@dataclass(frozen=True)
class GroundState:
    """Prepared n = 0 condensate: unit norm, phase fixed to 0 at the peak."""

    field: TransverseField
    chemical_potential_j: float
    tf_radii_m: tuple[float, float]


def _tf_mu_internal(g: float, wy: float, wz: float) -> float:
    return math.sqrt(g * wy * wz / (2.0 * math.pi))


def _tf_radii_m(mu: float, wy: float, wz: float, units: UnitSystem
                ) -> tuple[float, float]:
    ry = 2.0 * math.sqrt(mu) / wy if wy > 0.0 else math.inf
    rz = 2.0 * math.sqrt(mu) / wz if wz > 0.0 else math.inf
    return (ry * units.length_m, rz * units.length_m)


def g2d_from_tf_radius(trap: TrapSpec, radius_y_m: float,
                       units: UnitSystem) -> float:
    """Interaction strength (J m^2) that puts the TF edge at radius_y_m."""
    if not 0.0 < radius_y_m < math.inf:
        raise SimulationError("target radius must be finite and positive")
    wy, wz = trap.omegas_internal(units)
    if not (wy > 0.0 and wz > 0.0):
        raise SimulationError("radius calibration needs a confining trap")
    mu = (radius_y_m / units.length_m * wy / 2.0) ** 2
    g = 2.0 * math.pi * mu * mu / (wy * wz)
    return units.coupling2d_to_si(g)


def thomas_fermi_profile(trap: TrapSpec, g2d_j_m2: float,
                         grid: Grid2D) -> GroundState:
    """Analytic inverted-parabola density, renormalized on the grid.

    The chemical potential and radii are the continuum values; the grid
    field is renormalized to unit norm, so its edge carries the usual
    pixel-level truncation of the parabola.  Raises SimulationError if
    g2d_j_m2 is not finite and > 0.
    """
    units = grid.units
    g = units.coupling2d_to_internal(g2d_j_m2)
    # written as not (0 < g < inf) so that NaN is rejected too
    if not 0.0 < g < math.inf:
        raise SimulationError(
            f"Thomas-Fermi profile needs a finite g2d > 0, got {g2d_j_m2}")
    wy, wz = trap.omegas_internal(units)
    if not (wy > 0.0 and wz > 0.0):
        raise SimulationError("Thomas-Fermi profile needs a confining trap")
    mu = _tf_mu_internal(g, wy, wz)
    density = np.maximum(0.0, mu - trap.potential_internal(grid)) / g
    norm = np.sum(density) * grid.cell_area
    if not norm > 0.0:
        raise SimulationError("Thomas-Fermi cloud does not resolve on grid")
    psi = np.sqrt(density / norm).astype(np.complex128)
    return GroundState(TransverseField(grid, psi),
                       units.energy_to_si(mu), _tf_radii_m(mu, wy, wz, units))


def gaussian_profile(trap: TrapSpec, grid: Grid2D) -> GroundState:
    """Non-interacting harmonic-oscillator ground state (relaxation seed)."""
    units = grid.units
    wy, wz = trap.omegas_internal(units)
    if not (wy > 0.0 and wz > 0.0):
        raise SimulationError("Gaussian seed needs a confining trap")
    psi = np.exp(-(wy * grid.mesh_y**2 + wz * grid.mesh_z**2) / 4.0)
    psi = psi.astype(np.complex128)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_area)
    mu = 0.5 * (wy + wz)
    return GroundState(TransverseField(grid, psi),
                       units.energy_to_si(mu), _tf_radii_m(mu, wy, wz, units))


def _real_rows(values: np.ndarray) -> np.ndarray:
    """A complex field as a stack of real rows, [Re psi] or, when Im psi is
    not all zero, [Re psi, Im psi]: the rows' squares sum to |psi|^2."""
    if values.imag.any():
        return np.stack([values.real, values.imag])
    return values.real[None]


def _half_plane(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Parseval weights of the half spectrum (rfft2) of a real field: 1 on
    the zero and Nyquist columns of k_y, 2 on the others, which stand for
    their mirror images too.  Returns the weights and the weights times
    ksq on the half plane, each doubled along k_y to match a half
    spectrum viewed as interleaved (re, im) floats (_weighted_square)."""
    ksq = grid.mesh_ksq[:, :grid.n_y // 2 + 1]
    weights = np.full(ksq.shape, 2.0)
    weights[:, [0, -1]] = 1.0
    return (np.repeat(weights, 2, axis=-1),
            np.repeat(weights * ksq, 2, axis=-1))


def _weighted_square(spec: np.ndarray, doubled: np.ndarray) -> float:
    """Sum of doubled * |spec|^2, doubled one of _half_plane's planes.
    einsum without optimize sums in numpy's own loop, not in BLAS, whose
    threads would change the bits."""
    pairs = spec.view(np.float64)
    return float(np.einsum("rzk,zk,rzk->", pairs, doubled, pairs))


def _energies(spec: np.ndarray, kinetic: np.ndarray, potential: np.ndarray,
              g: float, grid: Grid2D
              ) -> tuple[float, float, float, np.ndarray]:
    """Kinetic, trap and g * quartic energy of the state whose real rows
    have the orthonormal half spectrum spec, and the rows themselves.  The
    kinetic term is read from spec (kinetic is _half_plane's weighted
    ksq), then one inverse FFT (which consumes spec) gives the rest."""
    e_kin = _weighted_square(spec, kinetic) * grid.cell_area
    rows = _ifft2_stack(spec, grid.n_y)
    dens = np.sum(rows * rows, axis=0)
    e_pot = float(np.einsum("ij,ij->", potential, dens) * grid.cell_area)
    quartic = float(np.einsum("ij,ij->", dens, dens) * grid.cell_area)
    return e_kin, e_pot, g * quartic, rows


def gpe_energy(field: TransverseField, trap: TrapSpec,
               g2d_j_m2: float) -> float:
    """Total energy per particle (J): kinetic + trap + interaction/2."""
    grid = field.grid
    g = grid.units.coupling2d_to_internal(g2d_j_m2)
    e_kin, e_pot, e_int2, _ = _energies(_fft2_stack(_real_rows(field.values)),
                                        _half_plane(grid)[1],
                                        trap.potential_internal(grid), g, grid)
    return grid.units.energy_to_si(e_kin + e_pot + 0.5 * e_int2)


# Steps between two reads of the relaxation's stop test (K).  Every step
# writes its normalised half spectrum into a ring of K slots, one array;
# only every K-th step and the one before it have their energy read, one
# inverse FFT and four reductions, about a third of a step.  Measured at
# double_charge_128's 128^2 geometry (2104 steps, dt 2 us, one BLAS
# thread, 2-core x86-64): median relaxation time of 7 interleaved runs,
# and the tracemalloc peak over the relaxation (the ring is K x 130 KiB)
#   K = 1    0.89 s   1.39 MiB    (the loop before the ring)
#   K = 8    0.68 s   2.40 MiB
#   K = 16   0.62 s   3.54 MiB
#   K = 32   0.63 s   5.57 MiB
_STOP_CHECK_EVERY = 16
# The step before halving, the stop tolerance and the step budget (a
# multiple of K, so that it falls on a check) of relax_ground_state.
_RELAX_DT_S = 2e-6
_RELAX_TOL = 1e-9
_RELAX_MAX_STEPS = 10000


def _relative_change(energy: float, before: float) -> float:
    return abs(energy - before) / max(abs(energy), 1e-300)


def relax_ground_state(seed: GroundState, trap: TrapSpec,
                       g2d_j_m2: float) -> GroundState:
    """Normalised gradient flow (Bao & Du, SIAM J. Sci. Comput. 25, 1674
    (2004)): grid's split-step loop in imaginary time, renormalised after
    every step.

    The step is _RELAX_DT_S (2 us), halved while dt * max(V_max, kinetic
    at Nyquist) is 1/2 or more, so that no trap or kinetic factor of a
    step falls to e^{-1/2}: 2 us up to 256^2 over 160 um, 1 us at 512^2.
    Halving is exact, so the step is 2 us / 2^j bit for bit.  Every
    operator of the flow is real, so the seed runs as real rows
    (_real_rows: one row, or two when its imaginary part is not zero)
    through half-spectrum transforms, and complex values return only at
    the final phase fix.  The norm (Parseval) is read from each step's
    half-stepped spectrum, the energy (kinetic from the spectrum, the rest
    after one inverse FFT) only where the stop test needs it, so N steps
    cost 2 N + 1 real FFTs plus one per energy read: 2 N / K at the checks
    and at most K in the window that stops.  N is the end of that window,
    up to K - 1 steps past the step that stops: on double_charge_128's
    128^2 grid the stop at 2104 runs 2112 steps, 1 + 2 x 2112 + 273 = 4498
    real FFTs.

    Stops at the first step whose relative energy change falls below
    _RELAX_TOL (1e-9).  The energy is read every _STOP_CHECK_EVERY steps
    (K), at the last two steps of each window of K, from a ring holding
    the window's normalised spectra.  Near convergence the change per
    step is a sum of decaying modes and falls monotonically, and the test
    relies on that: when the last change is at least the tolerance and no
    larger than at the check before, none in the window fell below it.
    Otherwise (below, or a rise) the window's energies are read in order
    and the loop stops at the first step under the tolerance, so the
    state, the step count and the DEBUG record are those of a test on
    every step.  The energy is non-increasing.  A state holding NaN or
    inf, the seed included, raises SimulationError at once, and a flow
    not stopped after _RELAX_MAX_STEPS (10000) steps ConvergenceError.
    The DEBUG record gives steps, energy reads, dt and the last change.
    """
    grid = seed.field.grid
    units = grid.units
    g = units.coupling2d_to_internal(g2d_j_m2)
    dt = units.time_to_internal(_RELAX_DT_S)
    potential = trap.potential_internal(grid)
    stiffest = max(float(potential.max()), float(grid.mesh_ksq.max()))
    while dt * stiffest >= 0.5:
        dt *= 0.5

    every, tol = _STOP_CHECK_EVERY, _RELAX_TOL
    weights, kinetic = _half_plane(grid)
    steps = _strang_steps(_real_rows(seed.field.values), grid.mesh_ksq, dt,
                          g, potential)
    ring = None
    # step -> (energy, mu, rows) of the steps read since the last check;
    # last is the window's start, whose energy is known, -1 before any
    measured = {-1: (math.inf, None, None)}
    evaluated = 0

    def measure(step):
        # _energies consumes the slot, so each step is read at most once
        nonlocal evaluated
        if step not in measured:
            e_kin, e_pot, e_int2, rows = _energies(
                ring[step % every], kinetic, potential, g, grid)
            energy = e_kin + e_pot + 0.5 * e_int2
            measured[step] = (energy, e_kin + e_pot + e_int2, rows)
            evaluated += 1
        return measured[step][0]

    last, last_change = -1, math.inf
    for step, (spec, pending) in enumerate(steps):
        if ring is None:
            ring = np.empty((every,) + spec.shape, dtype=spec.dtype)
        state = np.multiply(spec, pending, out=ring[step % every])
        norm = _weighted_square(state, weights) * grid.cell_area
        # Every NaN or inf in the state reaches the norm before the energy;
        # written as not (0 < x < inf) so that NaN trips it.
        if not 0.0 < norm < math.inf:
            raise SimulationError(
                f"relaxation norm is {norm} at step {step}: the state is "
                f"empty or holds NaN or inf")
        scale = 1.0 / math.sqrt(norm)
        spec *= scale
        state *= scale
        if step % every:
            continue

        change = _relative_change(measure(step), measure(step - 1))
        if change < tol or change > last_change:
            # in order from the window's start; each step's rows are
            # dropped once the step after it is read
            for stop in range(last + 1, step + 1):
                change = _relative_change(measure(stop),
                                          measured.pop(stop - 1)[0])
                if change < tol:
                    break
        if change < tol:
            break
        if step == _RELAX_MAX_STEPS:
            raise ConvergenceError(
                f"ground state not converged after {step} steps; "
                f"last relative energy change {change:.3g} (tol {tol:g})")
        last, last_change = step, change
        measured = {step: (measured[step][0], None, None)}
    logger.debug("ground state relaxed in %d steps (energy read at %d), "
                 "dt %g s: relative energy change %.3g < tol %g", stop,
                 evaluated, units.time_to_si(dt), change, tol)
    _, mu, rows = measured[stop]

    # Back to complex, and fix the global phase to 0 at the density peak.
    psi = rows[0].astype(np.complex128)
    if len(rows) == 2:
        psi.imag = rows[1]
    peak = np.unravel_index(np.argmax(np.abs(psi)), psi.shape)
    psi *= np.exp(-1j * np.angle(psi[peak]))
    wy, wz = trap.omegas_internal(units)
    return GroundState(TransverseField(grid, psi), units.energy_to_si(mu),
                       _tf_radii_m(mu, wy, wz, units))
