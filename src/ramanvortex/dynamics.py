"""Momentum-ladder GPE evolution under two-photon coupling pulses.

Model: orders n carry axial momentum 2 n hbar k and live on one transverse
grid.  In the frame rotating with a pulse's beam-frequency difference dnu,

    i d/dt psi_n = [-lap + V + g sum_m |psi_m|^2 + D_n] psi_n
                   + (omega/2) psi_{n-1} + (conj(omega)/2) psi_{n+1},

with D_n = 4 n^2 - n * (dnu / nu_r) in recoil units (axial kinetic energy
minus the photon energy bookkeeping).  dnu is carried as the ratio
dnu / nu_r so the resonances D_1(4) = D_2(8) = [D_2 - D_1](12) = 0 hold
exactly in floating point.

Splitting (grid._strang_steps, the one split-step loop, shared in real time
by free evolution and the time-of-flight mean-field window and run in
imaginary time by ground-state relaxation): spectral half-steps for the
transverse kinetic term around a position-space step in which trap +
meanfield (an identity in order space) commutes exactly with the per-point
ladder matrix.  That matrix, detunings included, is exponentiated exactly
once per pulse into a per-point unitary, built from symmetric
eigendecompositions: the phase of omega is peeled off first by
conjugation with diag(e^{i n arg omega}), leaving a real tridiagonal
that depends on the point only through |omega|, so it is diagonalised
once per distinct |omega|.  Each step then applies the unitary and the
trap + meanfield phase together, in place, over cache-sized blocks of
points.  The only splitting error left is the soft kinetic commutator, so
the default step is set by the 0.1 rad guard on kinetic and potential
phase rates and by the cap MAX_INTERNAL_STEP, not by omega or D_n.  Each
pulse references the coupling phase at its own start; only phase
differences between pulses are physical, matching how the beams are
actually used.

Free evolution (the delay after a pulse, the last one being the hold before
imaging) is the same loop without the ladder, followed by the exact axial
phase e^{-4i n^2 t} per order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .condensate import GroundState, TrapSpec
from .errors import (CalibrationError, SimulationError, StepSizeError,
                     TruncationError)
from .grid import (MAX_PHASE_PER_STEP, LadderState, _axial_phase,
                   _strang_evolve)
from .optics import CouplingMap, scaled_coupling

logger = logging.getLogger(__name__)

# Hard cap on the internal step.  Measured L2 error of the state after a
# 30 us, 2e4 rad/s LG x Gaussian pulse at 128^2 with the trap on, against
# dt / 8, at dt = 0.03: 1.2e-10 from the Thomas-Fermi state, 7.6e-7 from the
# non-interacting Gaussian packet (which breathes under the mean field).
MAX_INTERNAL_STEP = 0.03
# Edge-of-ladder population above which truncation is unsound.
EDGE_POPULATION_LIMIT = 1e-3
NORM_DRIFT_LIMIT = 1e-9


@dataclass(frozen=True)
class PulseSpec:
    """One square pulse: coupling map, beam frequency difference, duration,
    and the free evolution after it.

    delta_nu_recoils is dnu / nu_r (signed); resonance values -4, 4, 8, 12
    and 0 are then exact machine numbers.  trap_on holds for the pulse and
    for its delay_after_s; the last pulse's delay is the hold before
    imaging.
    """

    coupling: CouplingMap
    delta_nu_recoils: float
    duration_s: float
    trap_on: bool = True
    delay_after_s: float = 0.0

    def __post_init__(self):
        # written as not (a < x < b) so that NaN trips every check
        if not 0.0 < self.duration_s < math.inf:
            raise SimulationError(
                f"pulse duration {self.duration_s} s is not finite and > 0")
        if not 0.0 <= self.delay_after_s < math.inf:
            raise SimulationError(
                f"delay {self.delay_after_s} s is not finite and >= 0")
        if not abs(self.delta_nu_recoils) < math.inf:
            raise SimulationError(
                f"detuning {self.delta_nu_recoils} is not finite")


def detuning_ladder(delta_nu_recoils: float, n_max: int) -> np.ndarray:
    """Rotating-frame energies D_n / E_r for n = -n_max .. n_max."""
    if n_max < 1:
        raise SimulationError("n_max must be >= 1")
    n = np.arange(-n_max, n_max + 1, dtype=float)
    return 4.0 * n * n - n * delta_nu_recoils


def _resolve_steps(state: LadderState, potential, g: float, t_total: float,
                   dt_s) -> tuple[int, float, float, str]:
    """Step count and internal dt honoring the phase guard and the cap,
    the stiffest split phase per step at entry, and which limit set dt.

    The guarded rate is the larger of the kinetic rate at the grid's
    Nyquist corner and the trap plus mean-field rate at entry.
    """
    grid = state.grid
    units = grid.units
    v_max = 0.0 if potential is None else float(potential.max())
    rho_max = float(state.total_density().max())
    # NaN-propagating order: max(nan, x) is nan, max(x, nan) is x
    rate = max(v_max + g * rho_max, float(grid.mesh_ksq.max()))
    if not math.isfinite(rate):
        raise SimulationError(
            f"split phase rate is {rate}: the state holds NaN or inf")
    if dt_s is None:
        guard = MAX_PHASE_PER_STEP / max(rate, 1e-12)
        dt_limit = min(MAX_INTERNAL_STEP, guard)
        set_by = ("MAX_INTERNAL_STEP" if MAX_INTERNAL_STEP <= guard
                  else "the phase guard")
    else:
        dt_limit = units.time_to_internal(dt_s)
        if not dt_limit > 0.0:
            raise StepSizeError(f"dt = {dt_s} s is not > 0")
        if dt_limit * rate > MAX_PHASE_PER_STEP:
            raise StepSizeError(
                f"dt = {dt_s} s advances the stiffest split phase by "
                f"{dt_limit * rate:.3g} rad > {MAX_PHASE_PER_STEP} per "
                f"substep")
        set_by = "the given dt_s"
    n_steps = max(1, math.ceil(t_total / dt_limit))
    dt = t_total / n_steps
    return n_steps, dt, dt * rate, set_by


# Distinct values of s = |omega| / 2 per eigh call of the unitary build.
# Measured peak RSS of benchmark runs (perfbench/worker.py, seed 1) on a
# 2-core x86-64 machine, chunks of 64 / 128 / 256 / 4096: phase_scan_64
# (64^2) 44.1 / 44.4 / 44.0 / 44.6 MB, double_charge_128 87.8 / 87.8 /
# 87.3 / 91.0 MB, vortex_256 111.3 / 111.3 / 109.2 / 119.3 MB.  The build
# time does not move from 64 to 512: 102-109 ms at 256^2, 36-39 ms at
# 128^2 (n_max 4) and 6.6-7.7 ms at 64^2.
_LADDER_CHUNK = 128

# Distinct values of s per table of the unitary build, which makes its
# table and writes U in passes over this many values at a time, so the
# table adds at most _TABLE_VALUES (2 n_max + 1)^2 complex numbers to U:
# 3 MiB with n_max 3, 18 MiB with n_max 8.  Measured at 256^2 on a 2-core
# x86-64 machine, rise of ru_maxrss over one build in units of U (49 MiB
# with n_max 3, 289 MiB with n_max 8), on the LG x Gaussian coupling
# (15544 distinct s) and on an off-centre winding-1 field (61336 distinct
# s of 65536 points):
#
#   table values        2048  4096  8192  16384  one table
#   centred, n_max 3    1.05  1.09  1.16   1.26   1.26
#   off-centre, n_max 3 1.10  1.16  1.22   1.34   2.03
#   n_max 8, 4096: 1.08 centred, 1.09 off-centre (one table: 1.25, 1.96)
#
# The sorted build this replaced rose by 0.99-1.05 U.  The number of
# passes did not move the build time (medians of 5 builds, 2048 to one
# table: 188-204 ms centred at 256^2, 42-46 ms at 128^2 with n_max 4).
_TABLE_VALUES = 4096

# Grid points per block of the in-place apply, so that the block's slice
# of U, of the stack and the accumulator stay in cache.  Time of one apply
# (ladder and mean-field phase) in ms, best of three sweeps of 15 runs,
# single-threaded, on a 2-core x86-64 machine; "none" is the whole-grid
# product with fresh temporaries that it replaced:
#
#   block          none   512  1024  2048  4096  8192  16384
#   256^2, n_max 3 16.0  14.7  13.2  12.6  11.4  12.9   16.1
#   128^2, n_max 4  6.4   4.4   4.3   4.0   2.7   4.8    4.7
#    64^2, n_max 3  0.7   0.6   0.6   0.6   0.4   0.4    0.4
_APPLY_BLOCK = 4096


class _LadderPropagator:
    """Exact per-point ladder exponential of one pulse, precomputed.

    At grid point p the ladder matrix H_p holds D_n on the diagonal,
    omega_p / 2 below it and conj(omega_p) / 2 above it.  Conjugation by
    diag(e^{i n alpha_p}), alpha_p = arg omega_p, makes it a real symmetric
    tridiagonal T(s_p), s_p = |omega_p| / 2, with eigenvectors V and
    eigenvalues w, so U_p = e^{-i dt H_p} has entries
    M_ij(s_p) e^{i (n_i - n_j) alpha_p} with M = V e^{-i w dt} V^T.

    M depends on the point only through s, and centred beams repeat s
    bitwise over many points.  So eigh and M run once per distinct s, in
    chunks of _LADDER_CHUNK values, into a table of _TABLE_VALUES distinct
    s at most; each point whose s is in the table then takes its M from
    it and its own winding, written in point order, and the next table
    follows.  The arithmetic per point is that of a per-point eigh, so U
    is the same bitwise.  U holds (2 n_max + 1)^2 complex numbers of 16 B
    per grid point: 51 MB at 256^2 with n_max 3, 303 MB at n_max 8.  The
    table, freed before the next, holds as many per distinct s: the whole
    build, U included, raised ru_maxrss by 1.08-1.16 U in the 256^2 cases
    measured by _TABLE_VALUES.

    U is the largest array of a run and sets its peak memory: beside it a
    pulse holds only the input state and the one stack the split-step loop
    works in, and the time of flight stays below it (README, "Memory").
    """

    def __init__(self, coupling: CouplingMap, delta_recoils: np.ndarray,
                 n_max: int, dt: float, units):
        omega = units.rate_to_internal(1.0) * coupling.omega.values.ravel()
        dim = 2 * n_max + 1
        idx = np.arange(dim)
        n_orders = np.arange(-n_max, n_max + 1, dtype=float)
        s, inverse = np.unique(0.5 * np.abs(omega), return_inverse=True)
        # (dim, dim, n_pts): U[i, j] is one contiguous row over the points
        self.unitary = np.empty((dim, dim, omega.size), dtype=np.complex128)
        for c in range(0, s.size, _TABLE_VALUES):
            part = s[c:c + _TABLE_VALUES]
            # (dim, dim, part.size): M of each distinct s, built in chunks
            table = np.empty((dim, dim, part.size), dtype=np.complex128)
            for a in range(0, part.size, _LADDER_CHUNK):
                chunk = part[a:a + _LADDER_CHUNK]
                tri = np.zeros((chunk.size, dim, dim))
                tri[:, idx, idx] = delta_recoils
                tri[:, idx[1:], idx[:-1]] = chunk[:, None]
                tri[:, idx[:-1], idx[1:]] = chunk[:, None]
                w, v = np.linalg.eigh(tri)
                rot = np.exp(-1j * dt * w)[:, None, :]
                m = (v * rot) @ v.transpose(0, 2, 1)
                table[:, :, a:a + chunk.size] = m.transpose(1, 2, 0)
            # the points whose s is in the table, in point order
            pts = np.flatnonzero((inverse >= c) & (inverse < c + part.size))
            for a in range(0, pts.size, _APPLY_BLOCK):
                block = pts[a:a + _APPLY_BLOCK]
                pick = inverse[block] - c
                wind = np.exp(1j * np.angle(omega[block]) * n_orders[:, None])
                for i in range(dim):
                    for j in range(dim):
                        self.unitary[i, j, block] = (
                            table[i, j].take(pick) * (wind[i] * wind[j].conj()))
            del table  # before the next one is made
        # one block's accumulator and term, reused by every step
        self._acc = np.empty((dim, min(_APPLY_BLOCK, omega.size)),
                             dtype=np.complex128)
        self._term = np.empty_like(self._acc)

    def apply(self, flat: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """Overwrite flat, a (dim, n_pts) component stack, with U flat
        times phase, the (n_pts,) scalar factor shared by every order, and
        return it.

        Per point this is sum_j U[:, j] flat[j] summed in order of j, then
        one multiply by the phase, in blocks of _APPLY_BLOCK points.
        """
        dim, n_pts = flat.shape
        for a in range(0, n_pts, _APPLY_BLOCK):
            b = min(a + _APPLY_BLOCK, n_pts)
            out, tmp = self._acc[:, :b - a], self._term[:, :b - a]
            np.multiply(self.unitary[:, 0, a:b], flat[0, a:b], out=out)
            for j in range(1, dim):
                np.multiply(self.unitary[:, j, a:b], flat[j, a:b], out=tmp)
                out += tmp
            np.multiply(out, phase[a:b], out=flat[:, a:b])
        return flat


def _norm_drift(before: float, after: float) -> tuple[float, float]:
    """Norm change over a stage and the largest change the guard allows."""
    return after - before, NORM_DRIFT_LIMIT * max(before, 1.0)


def _check_norm(drift: float, limit: float, stage: str):
    # written as not (x <= limit) so that NaN trips every guard
    if not abs(drift) <= limit:
        raise SimulationError(f"norm drifted by {drift:.3g} during {stage}")


def _edge_populations(state: LadderState) -> dict[int, float]:
    return {n: state.population(n) for n in (-state.n_max, state.n_max)}


def _check_edges(edges: dict[int, float]):
    for n, pop in edges.items():
        if not pop <= EDGE_POPULATION_LIMIT:
            raise TruncationError(
                f"population {pop:.3g} reached ladder edge n = {n}; raise "
                f"n_max above {abs(n)}")


def evolve_pulse(state: LadderState, pulse: PulseSpec, trap: TrapSpec,
                 g2d_j_m2: float, dt_s: float | None = None) -> LadderState:
    """Apply one square pulse; returns a new state, input untouched.

    Logs one DEBUG record per pulse, before the norm and edge guards run:
    the step count, dt and the limit that set it, the stiffest split
    phase per step at entry, the norm drift and the edge populations, each
    next to its limit.
    """
    grid = state.grid
    units = grid.units
    if not pulse.coupling.omega.grid.same_geometry(grid):
        raise SimulationError("coupling map and state use different grids")
    g = units.coupling2d_to_internal(g2d_j_m2)
    potential = trap.potential_internal(grid) if pulse.trap_on else None
    t_total = units.time_to_internal(pulse.duration_s)

    norm_before = float(np.sum(np.abs(state.values) ** 2) * grid.cell_area)
    n_steps, dt, phase, set_by = _resolve_steps(state, potential, g,
                                                t_total, dt_s)
    deltas = detuning_ladder(pulse.delta_nu_recoils, state.n_max)
    ladder = _LadderPropagator(pulse.coupling, deltas, state.n_max, dt, units)
    values = _strang_evolve(state.values.copy(), grid.mesh_ksq, dt, n_steps,
                            g, potential, ladder)

    out = LadderState(grid, state.n_max, values)
    norm_after = float(np.sum(np.abs(values) ** 2) * grid.cell_area)
    drift, drift_limit = _norm_drift(norm_before, norm_after)
    edges = _edge_populations(out)
    logger.debug(
        "pulse %.3g s at %g recoils: %d steps, dt %.3g s (set by %s); "
        "split phase %.3g rad per step (limit %g); norm drift %.3g "
        "(limit %.3g); edge populations %s (limit %g)",
        pulse.duration_s, pulse.delta_nu_recoils, n_steps,
        units.time_to_si(dt), set_by, phase, MAX_PHASE_PER_STEP, drift,
        drift_limit, ", ".join(f"{p:.3g} at n = {n}"
                               for n, p in edges.items()),
        EDGE_POPULATION_LIMIT)
    _check_norm(drift, drift_limit, "a pulse")
    _check_edges(edges)
    return out


def evolve_free(state: LadderState, duration_s: float, trap: TrapSpec | None,
                g2d_j_m2: float) -> LadderState:
    """Lab-frame evolution with the beams off.

    The axial kinetic energy 4 n^2 E_r is a global per-order phase applied
    exactly; the transverse terms use the same splitting as a pulse, with
    the automatic step of _resolve_steps.
    """
    if not 0.0 <= duration_s < math.inf:
        raise SimulationError(
            f"duration {duration_s} s is not finite and >= 0")
    grid = state.grid
    g = grid.units.coupling2d_to_internal(g2d_j_m2)
    potential = trap.potential_internal(grid) if trap is not None else None
    t_total = grid.units.time_to_internal(duration_s)
    if t_total == 0.0:
        return LadderState(grid, state.n_max, state.values.copy())

    norm_before = float(np.sum(np.abs(state.values) ** 2) * grid.cell_area)
    n_steps, dt, _, _ = _resolve_steps(state, potential, g, t_total, None)
    values = _strang_evolve(state.values.copy(), grid.mesh_ksq, dt, n_steps,
                            g, potential)
    norm_after = float(np.sum(np.abs(values) ** 2) * grid.cell_area)
    _check_norm(*_norm_drift(norm_before, norm_after), "free evolution")
    _axial_phase(values, t_total)
    return LadderState(grid, state.n_max, values)


def run_sequence(state: LadderState, pulses: tuple[PulseSpec, ...],
                 trap: TrapSpec, g2d_j_m2: float
                 ) -> tuple[LadderState, list[dict]]:
    """Apply the pulses in order, each followed by its delay; log
    populations after each pulse, before its delay.  Pulses and delays
    take the automatic step of _resolve_steps.

    One log record per pulse, in order, carrying delta_nu_recoils,
    duration_s and the per-order populations.  Slicing the pulses splits a
    sequence into two runs that give the same state and records.
    """
    log = []
    current = state
    for pulse in pulses:
        current = evolve_pulse(current, pulse, trap, g2d_j_m2)
        log.append({
            "delta_nu_recoils": pulse.delta_nu_recoils,
            "duration_s": pulse.duration_s,
            "populations": {n: current.population(n) for n in current.orders},
        })
        if pulse.delay_after_s > 0.0:
            current = evolve_free(current, pulse.delay_after_s,
                                  trap if pulse.trap_on else None, g2d_j_m2)
    return current, log


# calibrate_pi_pulse: a coarse scan of _CALIBRATION_POINTS peak rates from
# 0.5 to 2.5 times pi / duration, refined until the bracketed transfer
# varies by less than _CALIBRATION_TOL.
_CALIBRATION_SPAN = (0.5, 2.5)
_CALIBRATION_POINTS = 9
_CALIBRATION_TOL = 0.005


def calibrate_pi_pulse(state: GroundState, coupling_shape: CouplingMap,
                       delta_nu_recoils: float, duration_s: float,
                       trap: TrapSpec, g2d_j_m2: float) -> tuple[float, float]:
    """Peak rate maximizing one-pulse transfer into order +1.

    Scans peak rates, coupling_shape scaled so that max |omega| is each
    trial rate, around the uniform-coupling value pi / duration on
    orders -3..3: 9 rates evenly spaced from 0.5 to 2.5 times pi / duration,
    then golden-section refinement until the bracketed transfer varies by
    less than 0.005.  Returns (peak_rate_rad_s, achieved transfer).  Raises
    CalibrationError when the best point sits at the scan edge.
    """
    if not 0.0 < duration_s < math.inf:
        raise SimulationError(
            f"pulse duration {duration_s} s is not finite and > 0")
    base = math.pi / duration_s
    initial = LadderState.from_single_order(state.field, 3)
    peak = np.abs(coupling_shape.omega.values).max()

    def transfer(rate: float) -> float:
        pulse = PulseSpec(scaled_coupling(coupling_shape, rate / peak),
                          delta_nu_recoils, duration_s)
        return evolve_pulse(initial, pulse, trap, g2d_j_m2).population(1)

    rates = np.linspace(_CALIBRATION_SPAN[0] * base,
                        _CALIBRATION_SPAN[1] * base, _CALIBRATION_POINTS)
    transfers = [transfer(r) for r in rates]
    best = int(np.argmax(transfers))
    if best in (0, len(rates) - 1):
        raise CalibrationError(
            f"transfer keeps rising at the scan edge "
            f"({_CALIBRATION_SPAN} times pi/duration)")

    # Golden-section refinement inside the bracketing pair.
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = rates[best - 1], rates[best + 1]
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = transfer(x1), transfer(x2)
    candidates = {rates[best]: transfers[best], x1: f1, x2: f2}
    for _ in range(40):
        if abs(f1 - f2) < _CALIBRATION_TOL and abs(hi - lo) < 0.2 * base:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = transfer(x2)
            candidates[x2] = f2
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = transfer(x1)
            candidates[x1] = f1
    best_rate = max(candidates, key=candidates.get)
    return float(best_rate), float(candidates[best_rate])
