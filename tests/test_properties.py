"""Exact symmetries of the pulse model, checked on random pulses.

The ladder equation

    i d/dt psi_n = [-lap + V + g rho + D_n] psi_n
                   + (omega/2) psi_{n-1} + (conj(omega)/2) psi_{n+1},

with D_n = 4 n^2 - n delta, conserves the norm, is covariant under a
global coupling phase (omega e^{i phi} acting on psi_n e^{i n phi} gives
e^{i n phi} times the result for omega on psi: the phase coherence of
the transfer) and maps to itself under n -> -n with delta -> -delta and
omega -> conj(omega).  rho and the split step counts are invariant under
all three, so each holds for the discretised pulse to rounding.  Free
evolution (a pulse's delay) is diagonal in the orders, so it commutes
with the order phases e^{i n phi}, trap on or off.

The equation is also time-reversible: conj(H(omega)) = H(conj(omega)),
so running conj(psi(T)) through the pulse with conj(omega) returns
conj(psi(0)).  The discretised pulse keeps this to rounding because the
Strang step is symmetric and its position step keeps each point's total
density, so forward and back see the same mean-field phase; a first-order
(Lie) splitting conserves the norm as well but fails the echo.  The delay
echoes the same way.

The grid keeps two point symmetries of the plane, taken about the grid
origin, where index i maps to -i mod N (not N - 1 - i): the mirror
y -> -y, which keeps the trap and turns a coupling of winding l into one
of winding -l, and, on a square grid in an isotropic trap, the quarter
turn.  Mirroring or turning the state and the coupling then mirrors or
turns the pulse's result, to rounding.

A uniform drive factorises, at any g and with the trap on: with omega
constant over the grid the per-point ladder unitary is the same
everywhere and commutes with the kinetic and position steps, and the
total density of phi (x) c is |phi|^2 for every unit vector c.  So a
pulse on phi (x) e_0 gives [exp(-i t H_ladder) e_0] (x) (phi after a delay
of the same length), to rounding, when both take the same step; they do,
since the automatic step sees the same density, trap, g and duration.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ramanvortex.condensate import TrapSpec, g2d_from_tf_radius
from ramanvortex.dynamics import (PulseSpec, detuning_ladder, evolve_free,
                                  evolve_pulse)
from ramanvortex.grid import Grid2D, LadderState, TransverseField
from ramanvortex.optics import (BeamSpec, CouplingMap, coupling_map,
                                scaled_coupling, uniform_coupling)

N_MAX = 4
DURATION_S = 20e-6
# a given pulse step, so that forward and back take the same steps
DT_S = 1.5e-7
TOLERANCE = 1e-12
TRAP = TrapSpec(40.0 / math.sqrt(2.0), 40.0)
ISOTROPIC_TRAP = TrapSpec(40.0, 40.0)

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None,
                             derandomize=True, database=None)

points = st.sampled_from((16, 32))
rates = st.floats(1e4, 1e5)
detunings = st.floats(-12.0, 12.0)
phases = st.floats(0.0, 2.0 * math.pi)
# complex weights of orders -1, 0, +1 in the initial packet
weights = st.tuples(*(st.tuples(st.floats(0.0, 1.0),
                                st.floats(0.0, 2.0 * math.pi))
                      for _ in range(3))).filter(
    lambda w: sum(a * a for a, _ in w) > 0.1)


@pytest.fixture(scope="module")
def grids(units):
    return {n: Grid2D(n, n, 40e-6, 40e-6, units) for n in (16, 32)}


@pytest.fixture(scope="module")
def g2d(units):
    return g2d_from_tf_radius(TRAP, 30e-6, units)


def packet(grid, weights, offset=0.0) -> LadderState:
    """Gaussian packet spread over orders -1, 0, +1, unit norm.  A nonzero
    offset moves it off the axis by (offset, -0.6 offset) widths and gives
    it a phase gradient along y, so that no mirror or turn keeps it."""
    sigma = 6e-6 / grid.units.length_m
    y = grid.mesh_y - offset * sigma
    z = grid.mesh_z + 0.6 * offset * sigma
    profile = np.exp(-(y**2 + z**2) / (2.0 * sigma**2))
    if offset:
        profile = profile * np.exp(1j * offset * grid.mesh_y / sigma)
    state = LadderState(grid, N_MAX)
    for n, (amp, arg) in zip((-1, 0, 1), weights):
        state.values[state.index(n)] = amp * np.exp(1j * arg) * profile
    state.values /= math.sqrt(sum(state.population(n) for n in state.orders))
    return state


def vortex_coupling(grid, rate, rel_phase=0.0) -> CouplingMap:
    return coupling_map(BeamSpec("lg", 20e-6, winding=1),
                        BeamSpec("gaussian", 40e-6), rate, rel_phase, grid)


def conjugate(coupling: CouplingMap) -> CouplingMap:
    grid = coupling.omega.grid
    return CouplingMap(TransverseField(grid, np.conj(coupling.omega.values)))


def reversed_state(state: LadderState) -> LadderState:
    return LadderState(state.grid, state.n_max, np.conj(state.values))


def distance(a: LadderState, b: np.ndarray) -> float:
    """L2 distance of two order stacks in the state norm."""
    return math.sqrt(float(np.sum(np.abs(a.values - b) ** 2))
                     * a.grid.cell_area)


def mirror_y(values: np.ndarray) -> np.ndarray:
    """values at y -> -y: index i to -i mod N along the last (y) axis."""
    return np.roll(values[..., ::-1], 1, axis=-1)


def quarter_turn(values: np.ndarray) -> np.ndarray:
    """values turned by 90 degrees about the origin of a square grid:
    psi'(y, z) = psi(z, -y)."""
    return mirror_y(np.swapaxes(values, -1, -2))


def mapped(coupling: CouplingMap, symmetry) -> CouplingMap:
    grid = coupling.omega.grid
    return CouplingMap(TransverseField(grid, symmetry(coupling.omega.values)))


def order_phases(n_max, phi) -> np.ndarray:
    n = np.arange(-n_max, n_max + 1)
    return np.exp(1j * n * phi)[:, None, None]


@PROPERTY_SETTINGS
@given(n=points, rate=rates, delta=detunings, phi=phases, w=weights)
def test_pulse_conserves_norm(grids, g2d, n, rate, delta, phi, w):
    state = packet(grids[n], w)
    pulse = PulseSpec(vortex_coupling(grids[n], rate, phi), delta,
                      DURATION_S)
    out = evolve_pulse(state, pulse, TRAP, g2d)
    before = sum(state.population(k) for k in state.orders)
    after = sum(out.population(k) for k in out.orders)
    assert abs(after - before) <= TOLERANCE


@PROPERTY_SETTINGS
@given(n=points, rate=rates, delta=detunings, phi=phases, w=weights)
def test_coupling_phase_is_carried_by_the_orders(grids, g2d, n, rate,
                                                 delta, phi, w):
    grid = grids[n]
    state = packet(grid, w)
    turn = order_phases(N_MAX, phi)
    turned = LadderState(grid, N_MAX, state.values * turn)
    base = evolve_pulse(state, PulseSpec(vortex_coupling(grid, rate),
                                         delta, DURATION_S), TRAP, g2d)
    shifted = evolve_pulse(turned, PulseSpec(vortex_coupling(grid, rate, phi),
                                             delta, DURATION_S), TRAP, g2d)
    assert distance(shifted, base.values * turn) <= TOLERANCE


@PROPERTY_SETTINGS
@given(n=points, phi=phases, w=weights, trap_on=st.booleans())
def test_free_evolution_keeps_order_phases(grids, g2d, n, phi, w, trap_on):
    grid = grids[n]
    state = packet(grid, w)
    turn = order_phases(N_MAX, phi)
    turned = LadderState(grid, N_MAX, state.values * turn)
    trap = TRAP if trap_on else None
    base = evolve_free(state, DURATION_S, trap, g2d)
    shifted = evolve_free(turned, DURATION_S, trap, g2d)
    assert distance(shifted, base.values * turn) <= TOLERANCE


@PROPERTY_SETTINGS
@given(n=points, rate=rates, delta=detunings, phi=phases, w=weights)
def test_detuning_sign_flip_mirrors_the_ladder(grids, g2d, n, rate, delta,
                                               phi, w):
    grid = grids[n]
    state = packet(grid, w)
    coupling = vortex_coupling(grid, rate, phi)
    mirrored = LadderState(grid, N_MAX, state.values[::-1])
    out = evolve_pulse(state, PulseSpec(coupling, delta, DURATION_S),
                       TRAP, g2d)
    out_mirrored = evolve_pulse(mirrored,
                                PulseSpec(conjugate(coupling), -delta,
                                          DURATION_S),
                                TRAP, g2d)
    assert distance(out_mirrored, out.values[::-1]) <= TOLERANCE


@PROPERTY_SETTINGS
@given(n=points, rate=rates, delta=detunings, phi=phases, w=weights)
def test_pulse_echoes_under_time_reversal(grids, g2d, n, rate, delta, phi,
                                          w):
    state = packet(grids[n], w)
    coupling = vortex_coupling(grids[n], rate, phi)
    out = evolve_pulse(state, PulseSpec(coupling, delta, DURATION_S),
                       TRAP, g2d, dt_s=DT_S)
    back = evolve_pulse(reversed_state(out),
                        PulseSpec(conjugate(coupling), delta, DURATION_S),
                        TRAP, g2d, dt_s=DT_S)
    assert distance(out, state.values) > 0.1
    assert distance(back, np.conj(state.values)) <= TOLERANCE


@PROPERTY_SETTINGS
@given(n=points, w=weights, trap_on=st.booleans())
def test_delay_echoes_under_time_reversal(grids, g2d, n, w, trap_on):
    state = packet(grids[n], w)
    trap = TRAP if trap_on else None
    out = evolve_free(state, DURATION_S, trap, g2d)
    back = evolve_free(reversed_state(out), DURATION_S, trap, g2d)
    assert distance(out, state.values) > 0.1
    assert distance(back, np.conj(state.values)) <= TOLERANCE


@PROPERTY_SETTINGS
@given(n=points, rate=rates, delta=detunings, phi=phases, w=weights)
def test_mirror_maps_the_pulse_to_the_opposite_winding(grids, g2d, n, rate,
                                                       delta, phi, w):
    grid = grids[n]
    state = packet(grid, w, offset=0.7)
    coupling = vortex_coupling(grid, rate, phi)
    out = evolve_pulse(state, PulseSpec(coupling, delta, DURATION_S),
                       TRAP, g2d)
    mirrored = LadderState(grid, N_MAX, mirror_y(state.values))
    out_mirrored = evolve_pulse(
        mirrored, PulseSpec(mapped(coupling, mirror_y), delta, DURATION_S),
        TRAP, g2d)
    assert distance(mirrored, state.values) > 0.1
    assert distance(out_mirrored, mirror_y(out.values)) <= TOLERANCE


@PROPERTY_SETTINGS
@given(n=points, rate=rates, delta=detunings, phi=phases, w=weights)
def test_quarter_turn_of_state_and_coupling_turns_the_pulse(grids, g2d, n,
                                                            rate, delta, phi,
                                                            w):
    grid = grids[n]
    state = packet(grid, w, offset=0.7)
    coupling = vortex_coupling(grid, rate, phi)
    out = evolve_pulse(state, PulseSpec(coupling, delta, DURATION_S),
                       ISOTROPIC_TRAP, g2d)
    turned = LadderState(grid, N_MAX, quarter_turn(state.values))
    out_turned = evolve_pulse(
        turned, PulseSpec(mapped(coupling, quarter_turn), delta, DURATION_S),
        ISOTROPIC_TRAP, g2d)
    assert distance(turned, state.values) > 0.1
    assert distance(out_turned, quarter_turn(out.values)) <= TOLERANCE


@PROPERTY_SETTINGS
@given(n=points, rate=rates, delta=detunings, phi=phases,
       offset=st.floats(0.0, 1.0))
def test_uniform_drive_factorises(grids, g2d, n, rate, delta, phi, offset):
    grid = grids[n]
    units = grid.units
    # a displaced, boosted packet on order 0 alone
    state = packet(grid, ((0.0, 0.0), (1.0, 0.0), (0.0, 0.0)), offset)
    omega = rate * np.exp(1j * phi)
    drive = scaled_coupling(uniform_coupling(rate, grid), np.exp(1j * phi))
    out = evolve_pulse(state, PulseSpec(drive, delta, DURATION_S), TRAP, g2d)
    delayed = evolve_free(state, DURATION_S, TRAP, g2d)

    w = units.rate_to_internal(omega)
    ladder = np.diag(detuning_ladder(delta, N_MAX)).astype(complex)
    ladder += np.diag(np.full(2 * N_MAX, w / 2.0), -1)
    ladder += np.diag(np.full(2 * N_MAX, np.conj(w) / 2.0), 1)
    weights = expm(-1j * units.time_to_internal(DURATION_S) * ladder)[:, N_MAX]
    expected = weights[:, None, None] * delayed.values[delayed.index(0)]
    assert distance(out, state.values) > 0.1
    assert distance(out, expected) <= TOLERANCE
