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
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanvortex.condensate import TrapSpec, g2d_from_tf_radius
from ramanvortex.dynamics import PulseSpec, evolve_free, evolve_pulse
from ramanvortex.grid import Grid2D, LadderState, TransverseField
from ramanvortex.optics import BeamSpec, CouplingMap, coupling_map

N_MAX = 4
DURATION_S = 20e-6
TOLERANCE = 1e-12
TRAP = TrapSpec(40.0 / math.sqrt(2.0), 40.0)

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


def packet(grid, weights) -> LadderState:
    """Gaussian packet spread over orders -1, 0, +1, unit norm."""
    sigma = 6e-6 / grid.units.length_m
    profile = np.exp(-(grid.mesh_y**2 + grid.mesh_z**2) / (2.0 * sigma**2))
    state = LadderState(grid, N_MAX)
    for n, (amp, arg) in zip((-1, 0, 1), weights):
        state.values[state.index(n)] = amp * np.exp(1j * arg) * profile
    state.values /= math.sqrt(sum(state.population(n) for n in state.orders))
    return state


def vortex_coupling(grid, rate, rel_phase=0.0) -> CouplingMap:
    return coupling_map(BeamSpec("lg", 20e-6, winding=1),
                        BeamSpec("gaussian", 40e-6), rate, rel_phase, grid)


def distance(a: LadderState, b: np.ndarray) -> float:
    """L2 distance of two order stacks in the state norm."""
    return math.sqrt(float(np.sum(np.abs(a.values - b) ** 2))
                     * a.grid.cell_area)


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
    conjugate = CouplingMap(
        TransverseField(grid, np.conj(coupling.omega.values)),
        -coupling.oam_step, coupling.peak_rate_rad_s)
    mirrored = LadderState(grid, N_MAX, state.values[::-1])
    out = evolve_pulse(state, PulseSpec(coupling, delta, DURATION_S),
                       TRAP, g2d)
    out_mirrored = evolve_pulse(mirrored,
                                PulseSpec(conjugate, -delta, DURATION_S),
                                TRAP, g2d)
    assert distance(out_mirrored, out.values[::-1]) <= TOLERANCE
