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
the step is set by the 0.1 rad guard on kinetic and potential phase
rates and by the cap MAX_INTERNAL_STEP, not by omega or D_n.  Each pulse
references the coupling phase at its own start; only phase differences
between pulses are physical, matching how the beams are actually used.

Free evolution (the delay after a pulse, the last one being the hold before
imaging) is the same loop without the ladder, followed by the exact axial
phase e^{-4i n^2 t} per order.  Pulses and delays share one runner,
_run_stage: it reads the total density once before the loop, for the step
and the norm, and each order's population once after it, for the norm and
ladder-edge guards, and logs one DEBUG record per stage before they raise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .condensate import GroundState, TrapSpec
from .errors import CalibrationError, SimulationError, TruncationError
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
    if not 1 <= n_max < math.inf:
        raise SimulationError(f"n_max must be finite and >= 1, got {n_max}")
    if n_max != int(n_max):
        raise SimulationError(f"n_max must be an integer, got {n_max}")
    n = np.arange(-n_max, n_max + 1, dtype=float)
    return 4.0 * n * n - n * delta_nu_recoils


def _resolve_steps(grid, rho_max: float, potential, g: float,
                   t_total: float) -> tuple[int, float, float, str]:
    """Step count and internal dt honoring the phase guard and the cap,
    the stiffest split phase per step at entry, and which limit set dt.

    The guarded rate is the larger of the kinetic rate at the grid's
    Nyquist corner and the trap plus mean-field rate at entry, where the
    total density peaks at rho_max.  A caller that needs a finer step
    lowers MAX_INTERNAL_STEP.
    """
    v_max = 0.0 if potential is None else float(potential.max())
    # NaN-propagating order: max(nan, x) is nan, max(x, nan) is x
    rate = max(v_max + g * rho_max, float(grid.mesh_ksq.max()))
    if not math.isfinite(rate):
        raise SimulationError(
            f"split phase rate is {rate}: the state holds NaN or inf")
    guard = MAX_PHASE_PER_STEP / max(rate, 1e-12)
    dt_limit = min(MAX_INTERNAL_STEP, guard)
    set_by = ("MAX_INTERNAL_STEP" if MAX_INTERNAL_STEP <= guard
              else "the phase guard")
    n_steps = max(1, math.ceil(t_total / dt_limit))
    dt = t_total / n_steps
    return n_steps, dt, dt * rate, set_by


# Distinct values of s = |omega| / 2 per eigh call of the unitary build.
# Measured on the benchmark's pulses (perfbench/workloads.py, seed 1) on a
# 2-core x86-64 machine, one BLAS thread, a fresh process per entry: the
# rise of ru_maxrss over one build (the larger of two runs) and its
# tracemalloc peak, both in units of U, then the median time of 5 builds
# in ms (the faster of two runs).  vortex_256's coupling has U = 49 MiB
# and 15101 distinct s; double_charge_128's three pulses U = 20.25 MiB
# and 3929, 4002 and 1677; phase_scan_64's pulse 0 U = 3.06 MiB and 1031.
# "table" is one eigh per table of _TABLE_BYTES.
#
#   chunk               64             128            256            table
#   vortex_256      1.03 1.08 116  1.02 1.08 115  1.02 1.08 116  1.14 1.17 118
#   128^2, pulse 1  1.13 1.15  40  1.13 1.15  39  1.19 1.18  40  1.40 1.35  40
#   128^2, pulse 2  1.14 1.14  41  1.14 1.14  41  1.20 1.18  43  1.41 1.35  40
#   128^2, readout  1.20 1.16  23  1.20 1.16  24  1.20 1.18  24  1.34 1.35  24
#   64^2, pulse 0   1.91 1.64 6.9  1.93 1.67 6.5  1.89 1.67 6.5  2.59 2.47 8.9
#
# U is the same bitwise in every entry.  The chunk level buys no time, but
# against one eigh per table 128 keeps 0.11-0.27 U off every build: 2.8-5.5
# MiB on the 128^2 builds, which set double_charge_128's peak, and 5.6 MiB
# at 256^2.  256 gives back up to 0.06 U of that at 128^2.
_LADDER_CHUNK = 128

# Bytes per table of the unitary build.  The build makes its table of
# M(s) and writes U in passes over as many distinct s = |omega| / 2 as
# this holds, so the table adds the same to U at every n_max: 1337 values
# with n_max 3, 809 with 4, 226 with 8.  Measured on a 2-core x86-64
# machine, one BLAS thread: the rise of ru_maxrss over one build in units
# of U (a fresh process per entry), then the median time of 5 builds in
# ms (the budgets interleaved in one process).  At 256^2 the benchmark's
# LG x Gaussian coupling (centred, 15101 distinct |omega|) and a winding-1
# field off every grid point (61336 of 65536 points); at 128^2 with
# n_max 4 the three pulses of double_charge_128 (3929, 4002 and 1677).  U
# is 49 MiB with n_max 3, 20 MiB at 128^2 and 289 MiB with n_max 8.
#
#   budget               512 KiB     1 MiB       2 MiB     4096 values
#   centred, n_max 3     1.09  167   1.10  147   1.13  150   1.15  145
#   off-centre, n_max 3  1.13  653   1.13  614   1.15  580   1.19  586
#   128^2, pulse 1       1.15   89   1.25   83   1.29   78   1.44   77
#   128^2, pulse 2       1.17   90   1.24   82   1.31   80   1.40   75
#   128^2, readout       1.16   54   1.25   46   1.27   43   1.25   42
#   centred, n_max 8     1.02 1309   1.03 1152   1.03 1018   1.09  919
#   off-centre, n_max 8  1.02 3217   1.03 2724   1.03 2446   1.09 2404
#
# "4096 values" is the count this budget replaced: 3.1 MiB with n_max 3,
# 5.1 MiB with 4, 18 MiB with 8.  Smaller tables cost build time, as each
# pass writes its points of U scattered over the grid.  1 MiB keeps that
# to about 5 ms a build at n_max 4, where it takes 3.5 MB off the peak
# RSS of double_charge_128; with n_max 8 the build takes 13-25% longer.
_TABLE_BYTES = 1 << 20

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
    chunks of _LADDER_CHUNK values, into a table of _TABLE_BYTES at most;
    each point whose s is in the table then takes its M from it and its
    own winding, written in point order, and the next table follows.  The
    arithmetic per point is that of a per-point eigh, so U is the same
    bitwise.  U holds (2 n_max + 1)^2 complex numbers of 16 B per grid
    point: 51 MB at 256^2 with n_max 3, 303 MB at n_max 8.  The table,
    freed before the next, holds as many per distinct s: the whole build,
    U included, raised ru_maxrss by 1.10-1.13 U at 256^2 with n_max 3,
    1.24-1.25 U on the 128^2 pulses with n_max 4 and 1.03 U with n_max 8,
    in the cases measured by _TABLE_BYTES.

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
        # distinct s per table, so that a table holds _TABLE_BYTES at most
        per_table = _TABLE_BYTES // (16 * dim * dim)
        for c in range(0, s.size, per_table):
            part = s[c:c + per_table]
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


def _check_norm(drift: float, limit: float, stage: str):
    # written as not (x <= limit) so that NaN trips every guard
    if not abs(drift) <= limit:
        raise SimulationError(f"norm drifted by {drift:.3g} during {stage}")


def _check_edges(edges: dict[int, float]):
    for n, pop in edges.items():
        if not pop <= EDGE_POPULATION_LIMIT:
            raise TruncationError(
                f"population {pop:.3g} reached ladder edge n = {n}; raise "
                f"n_max above {abs(n)}")


def _run_stage(state: LadderState, duration_s: float, trap: TrapSpec | None,
               g2d_j_m2: float, pulse: PulseSpec | None = None
               ) -> LadderState:
    """The one runner of pulses and delays: a pulse with its ladder or,
    with pulse None, a delay with its axial phase.  The total density read
    before the loop gives rho_max and the norm before; the populations
    read after it, with U dropped, give the norm after and the edge
    populations.  One DEBUG record puts steps, dt, split phase, norm drift
    and edge populations next to their limits before the guards can raise.
    """
    grid = state.grid
    units = grid.units
    g = units.coupling2d_to_internal(g2d_j_m2)
    potential = trap.potential_internal(grid) if trap is not None else None
    t_total = units.time_to_internal(duration_s)
    rho = state.total_density()
    norm_before = float(rho.sum() * grid.cell_area)
    n_steps, dt, phase, set_by = _resolve_steps(
        grid, float(rho.max()), potential, g, t_total)
    del rho
    ladder = None if pulse is None else _LadderPropagator(
        pulse.coupling, detuning_ladder(pulse.delta_nu_recoils, state.n_max),
        state.n_max, dt, units)
    values = _strang_evolve(state.values.copy(), grid.mesh_ksq, dt, n_steps,
                            g, potential, ladder)
    del ladder
    if pulse is None:
        _axial_phase(values, t_total)

    out = LadderState(grid, state.n_max, values)
    pops = {n: out.population(n) for n in out.orders}
    drift = sum(pops.values()) - norm_before
    drift_limit = NORM_DRIFT_LIMIT * max(norm_before, 1.0)
    edges = {n: pops[n] for n in (-state.n_max, state.n_max)}
    logger.debug(
        "%s %.3g s%s: %d steps, dt %.3g s (set by %s); split phase %.3g rad "
        "per step (limit %g); norm drift %.3g (limit %.3g); edge populations "
        "%s (limit %g)", "delay" if pulse is None else "pulse", duration_s,
        "" if pulse is None else f" at {pulse.delta_nu_recoils:g} recoils",
        n_steps, units.time_to_si(dt), set_by, phase, MAX_PHASE_PER_STEP,
        drift, drift_limit,
        ", ".join(f"{p:.3g} at n = {n}" for n, p in edges.items()),
        EDGE_POPULATION_LIMIT)
    _check_norm(drift, drift_limit,
                "free evolution" if pulse is None else "a pulse")
    _check_edges(edges)
    return out


def evolve_pulse(state: LadderState, pulse: PulseSpec, trap: TrapSpec,
                 g2d_j_m2: float) -> LadderState:
    """Apply one square pulse; returns a new state, input untouched.
    The step follows from _resolve_steps.  Logs one DEBUG record and runs
    the norm and edge guards (_run_stage).
    """
    if not pulse.coupling.omega.grid.same_geometry(state.grid):
        raise SimulationError("coupling map and state use different grids")
    return _run_stage(state, pulse.duration_s,
                      trap if pulse.trap_on else None, g2d_j_m2, pulse)


def evolve_free(state: LadderState, duration_s: float, trap: TrapSpec | None,
                g2d_j_m2: float) -> LadderState:
    """Lab-frame evolution with the beams off: the transverse terms split
    as in a pulse, then the axial kinetic energy 4 n^2 E_r applied exactly
    as a global per-order phase.  A delay longer than zero runs in
    _run_stage, with one DEBUG record and the pulse's guards.
    """
    if not 0.0 <= duration_s < math.inf:
        raise SimulationError(
            f"duration {duration_s} s is not finite and >= 0")
    if duration_s == 0.0:
        return LadderState(state.grid, state.n_max, state.values.copy())
    return _run_stage(state, duration_s, trap, g2d_j_m2)


def run_sequence(state: LadderState, pulses: tuple[PulseSpec, ...],
                 trap: TrapSpec, g2d_j_m2: float
                 ) -> tuple[LadderState, list[dict]]:
    """Apply the pulses in order, each followed by its delay; log
    populations after each pulse, before its delay.  Pulses and delays
    take the step of _resolve_steps and log as in _run_stage.

    One log record per pulse, in order, carrying delta_nu_recoils,
    duration_s and the per-order populations.  Slicing the pulses splits a
    sequence into two runs that give the same state and records.
    """
    log = []
    current = state
    for pulse in pulses:
        # evolve_pulse, not _run_stage: perfbench's tracer and other
        # wrappers of evolve_pulse must see every pulse of a sequence
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
