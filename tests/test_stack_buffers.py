"""The split-step loop and time of flight against their earlier versions,
kept here verbatim as references (apart from names, a copy handed to
each forward transform, which now runs in place, and the time of
flight's pruning rule, which the reference follows), and the memory the
package now holds through them.

The references take a fresh spectrum from every forward transform, sum
the density over a stack-sized temporary and copy the padded stack for
the time-of-flight window.  The package runs the same arithmetic on one
buffer, so every comparison is exact, byte for byte (signed zeros
included), not a tolerance.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from ramanvortex import imaging, scenarios
from ramanvortex.condensate import (TrapSpec, g2d_from_tf_radius,
                                    thomas_fermi_profile)
from ramanvortex.config import ExperimentConfig
from ramanvortex.dynamics import (_LadderPropagator, _resolve_steps,
                                  detuning_ladder, run_sequence)
from ramanvortex.grid import (Grid2D, LadderState, _axial_phase, _density,
                              _fft2_stack, _ifft2_stack, _strang_evolve,
                              _strang_steps)
from ramanvortex.imaging import time_of_flight
from ramanvortex.optics import BeamSpec, coupling_map


def reference_strang_steps(values, ksq, tau, g, potential=None, ladder=None):
    n_y = values.shape[-1] if np.isrealobj(values) else None
    if n_y is not None:
        ksq = ksq[:, :n_y // 2 + 1]
    half = np.exp(-0.5 * tau * ksq)
    full = half * half
    spec = _fft2_stack(values.copy())
    del values
    yield spec, 1.0
    spec *= half
    while True:
        values = _ifft2_stack(spec, n_y)
        del spec
        rho = np.sum(np.abs(values) ** 2, axis=0)
        scalar = g * rho if potential is None else potential + g * rho
        phase = np.exp(-tau * scalar)
        if ladder is None:
            values *= phase
        else:
            values = ladder.apply(values.reshape(len(values), -1),
                                  phase.ravel()).reshape(values.shape)
        del rho, scalar, phase
        spec = _fft2_stack(values.copy())
        del values
        yield spec, half
        spec *= full


def reference_spectrum(values, ksq, dt, n_steps, g, potential=None,
                       ladder=None):
    steps = reference_strang_steps(values, ksq, 1j * dt, g, potential, ladder)
    for _ in range(n_steps):
        next(steps)
    spec, pending = next(steps)
    spec *= pending
    return spec


def reference_strang_evolve(values, ksq, dt, n_steps, g, potential=None,
                            ladder=None):
    return _ifft2_stack(reference_spectrum(values, ksq, dt, n_steps, g,
                                           potential, ladder))


def reference_time_of_flight(state, t_s, meanfield_window_s, g2d_j_m2,
                             pad_factor=2.0):
    """The stack time_of_flight returns, computed as it was before the
    window ran on one buffer (guards, bookkeeping and logging left out)."""
    units = state.grid.units
    window_s = min(meanfield_window_s, t_s)
    grid = state.grid
    padded = grid.padded(pad_factor)
    values = np.zeros((state.values.shape[0],) + padded.shape,
                      dtype=np.complex128)
    z0 = (padded.n_z - grid.n_z) // 2
    y0 = (padded.n_y - grid.n_y) // 2
    values[:, z0:z0 + grid.n_z, y0:y0 + grid.n_y] = state.values
    g = units.coupling2d_to_internal(g2d_j_m2)
    t = units.time_to_internal(t_s)
    t_window = units.time_to_internal(window_s) if g != 0.0 else 0.0

    flight = np.full(len(values), t)
    if t_window > 0.0:
        pops = list(np.sum(np.abs(values) ** 2, axis=(1, 2))
                    * padded.cell_area)
        rho_max = np.sum(np.abs(values) ** 2, axis=0).max()
        rate = float(abs(g) * rho_max)
        phi = t_window * rate
        # prune the fainter edge order (the first on a tie) while the
        # window's phase times the pruned share stays within budget
        window, pruned_pop = list(range(len(values))), 0.0
        while window:
            k = min((window[0], window[-1]), key=lambda k: pops[k])
            if not phi * (pruned_pop + pops[k]) <= (imaging._PRUNE_BUDGET
                                                     * sum(pops)):
                break
            pruned_pop += pops[k]
            window.remove(k)
        active = np.array(window, dtype=int)
        pruned = np.setdiff1d(np.arange(len(values)), active)
        n_steps = max(1, math.ceil(t_window * rate
                                   / imaging.WINDOW_PHASE_PER_STEP))
        dt = t_window / n_steps
        spec = reference_spectrum(values[active], padded.mesh_ksq, dt,
                                  n_steps, g)
        flight[active] -= t_window
        if pruned.size:
            values[pruned] = _fft2_stack(values[pruned])
        values[active] = spec
        del spec
    elif t > 0.0:
        values = _fft2_stack(values.copy())
    if t > 0.0:
        phases = {}
        for n, tn in enumerate(flight):
            if tn not in phases:
                phases[tn] = np.exp(-1j * tn * padded.mesh_ksq)
            values[n] *= phases[tn]
        values = _ifft2_stack(values)
    _axial_phase(values, t)
    return values


@pytest.fixture(scope="module")
def trap():
    return TrapSpec(40.0 / math.sqrt(2.0), 40.0)


@pytest.fixture(scope="module")
def g2d(trap, units):
    return g2d_from_tf_radius(trap, 30e-6, units)


@pytest.fixture(scope="module")
def grid32(units):
    return Grid2D(32, 32, 160e-6, 160e-6, units)


def assert_identical(actual, expected):
    # np.array_equal treats -0.0 and 0.0 as equal; the bytes do not
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def ladder_mix(grid, trap, g2d, n_max):
    """A Thomas-Fermi cloud split over every order of the ladder, each
    order with its own winding and weight."""
    cloud = thomas_fermi_profile(trap, g2d, grid).field.values
    phi = np.arctan2(grid.mesh_z, grid.mesh_y)
    state = LadderState(grid, n_max)
    for n in state.orders:
        state.values[state.index(n)] = (cloud * np.exp(1j * n * phi)
                                        / (1.0 + abs(n)))
    state.values /= math.sqrt(sum(state.population(n) for n in state.orders))
    return state


class TestSplitStepLoop:
    def test_pulse_with_trap_and_ladder_matches_reference(self, grid64,
                                                          trap, g2d, units):
        state = ladder_mix(grid64, trap, g2d, 3)
        coupling = coupling_map(BeamSpec("lg", 40e-6, winding=1),
                                BeamSpec("gaussian", 175e-6), 2.0e5, 0.7,
                                grid64)
        potential = trap.potential_internal(grid64)
        g = units.coupling2d_to_internal(g2d)
        n_steps, dt, _, _ = _resolve_steps(
            grid64, float(state.total_density().max()), potential, g,
            units.time_to_internal(1e-5))
        assert n_steps > 2
        ladder = _LadderPropagator(coupling, detuning_ladder(4.0, 3), 3, dt,
                                   units)
        expected = reference_strang_evolve(state.values, grid64.mesh_ksq, dt,
                                           n_steps, g, potential, ladder)
        values = state.values.copy()
        out = _strang_evolve(values, grid64.mesh_ksq, dt, n_steps, g,
                             potential, ladder)
        assert_identical(out, expected)
        # the loop ran in the buffer it was handed
        assert np.shares_memory(out, values)

    def test_delay_matches_reference(self, grid32, trap, g2d, units):
        state = ladder_mix(grid32, trap, g2d, 2)
        potential = trap.potential_internal(grid32)
        g = units.coupling2d_to_internal(g2d)
        n_steps, dt, _, _ = _resolve_steps(
            grid32, float(state.total_density().max()), potential, g,
            units.time_to_internal(2e-5))
        assert n_steps > 2
        expected = reference_strang_evolve(state.values, grid32.mesh_ksq, dt,
                                           n_steps, g, potential)
        out = _strang_evolve(state.values.copy(), grid32.mesh_ksq, dt,
                             n_steps, g, potential)
        assert_identical(out, expected)

    def test_loop_makes_no_plane_after_its_first_steps(self, trap, g2d,
                                                       units):
        # A pulse's loop at 256^2, from step 2 to step 20: the stack, the
        # density, term and phase planes and the ladder's blocks are all
        # held, so nothing as large as one real plane (512 KiB) is made.
        # numpy's in-place broadcasts take a 128 KiB buffer of their own,
        # which is why the grid is not smaller.
        grid = Grid2D(256, 256, 160e-6, 160e-6, units)
        state = ladder_mix(grid, trap, g2d, 1)
        coupling = coupling_map(BeamSpec("lg", 40e-6, winding=1),
                                BeamSpec("gaussian", 175e-6), 2.0e5, 0.7,
                                grid)
        dt = units.time_to_internal(2e-7)
        ladder = _LadderPropagator(coupling, detuning_ladder(4.0, 1), 1, dt,
                                   units)
        steps = _strang_steps(state.values.copy(), grid.mesh_ksq, 1j * dt,
                              units.coupling2d_to_internal(g2d),
                              trap.potential_internal(grid), ladder)
        for _ in range(3):
            next(steps)
        tracemalloc.start()
        try:
            for _ in range(18):
                next(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plane = 8 * grid.n_y * grid.n_z
        assert peak < 0.5 * plane, peak / plane

    def test_density_matches_its_numpy_form(self, rng):
        values = (rng.standard_normal((5, 32, 64))
                  + 1j * rng.standard_normal((5, 32, 64)))
        assert_identical(_density(values),
                         np.sum(np.abs(values) ** 2, axis=0))


class TestTimeOfFlight:
    @pytest.fixture()
    def state(self, grid32, trap, g2d):
        return ladder_mix(grid32, trap, g2d, 2)

    # the orders each case leaves out of the window's mean field
    CASES = {"all_active": [], "one_pruned": [-2], "both_ends": [-2, 2],
             "one_end_two_deep": [-2, -1], "zero_window": [],
             "no_flight": []}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, state, g2d, case, caplog):
        t_s, window_s = 2e-3, 2e-4
        if case in ("one_pruned", "both_ends", "one_end_two_deep"):
            state.values[state.index(-2)] *= 1e-6
        if case == "both_ends":
            state.values[state.index(2)] *= 1e-6
        elif case == "one_end_two_deep":
            state.values[state.index(-1)] *= 1e-4
        elif case == "zero_window":
            window_s = 0.0
        elif case == "no_flight":
            t_s = 0.0
        before = state.values.copy()
        expected = reference_time_of_flight(state, t_s, window_s, g2d)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.imaging"):
            out = time_of_flight(state, t_s, window_s, g2d)
        (record,) = caplog.records
        assert f"pruned orders {self.CASES[case]}," in record.getMessage()
        assert_identical(out.values, expected)
        assert_identical(state.values, before)

    def test_peak_memory_within_two_and_a_half_padded_stacks(self):
        # The benchmark's vortex workload on its 32^2 smoke grid, after its
        # pulse: 7 orders, a 6 ms flight with a 40 us mean-field window.
        cfg = ExperimentConfig.from_mapping({
            "schema_version": 1,
            "scenario": "single_vortex",
            "grid": {"points_y": 32, "points_z": 32, "n_max": 3},
            "beams": {"lg": {"kind": "lg", "waist_m": 8.5e-5, "winding": 1},
                      "g": {"kind": "gaussian", "waist_m": 1.75e-4}},
            "pulses": [{"absorb": "lg", "emit": "g",
                        "rabi_rate_rad_s": 2.19e5, "detuning_recoils": 4.0,
                        "duration_s": 1.0e-5}],
            "imaging": {"meanfield_window_s": 4.0e-5}})
        ctx = scenarios._prepare(cfg)
        state, _ = run_sequence(ctx.initial_state(), cfg.pulses(ctx.grid),
                                ctx.trap, ctx.g2d_j_m2)
        padded = ctx.grid.padded(ctx.imaging["pad_factor"])
        stack_bytes = len(state.values) * padded.n_y * padded.n_z * 16
        tracemalloc.start()
        try:
            ctx.expand(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the earlier copies of the padded stack peaked at 3.5 stacks
        assert peak <= 2.5 * stack_bytes, peak / stack_bytes


class TestPhaseStudy:
    def test_trials_hold_no_earlier_trial_state(self, tmp_path, monkeypatch):
        # A 32^2 phase study of three trials.  Each trial needs only the
        # imprinted state and its own start, so what is held when a trial
        # begins, and its peak, must not grow from trial to trial: trial
        # 0's final state or the previous trial's would add a whole stack.
        cfg = ExperimentConfig.from_mapping({
            "schema_version": 1,
            "scenario": "phase_coherence",
            "output_dir": str(tmp_path / "study"),
            "grid": {"points_y": 32, "points_z": 32, "n_max": 3},
            "beams": {"lg": {"kind": "lg", "waist_m": 8.5e-5, "winding": 1},
                      "g": {"kind": "gaussian", "waist_m": 1.75e-4},
                      "top": {"kind": "gaussian", "waist_m": 2.0e-4}},
            "pulses": [{"absorb": "lg", "emit": "g",
                        "rabi_rate_rad_s": 7.3e4, "detuning_recoils": 4.0,
                        "duration_s": 3.0e-5},
                       {"absorb": "top", "emit": "g",
                        "rabi_rate_rad_s": 7.0e4, "detuning_recoils": 4.0,
                        "duration_s": 1.5e-5}],
            "study": {"n_trials": 3},
            "imaging": {"time_of_flight_s": 0.0}})
        stack_bytes = 7 * 32 * 32 * 16
        held, peaks = [], []
        sequence = scenarios.run_sequence

        def measured(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            out = sequence(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(scenarios, "run_sequence", measured)
        tracemalloc.start()
        try:
            scenarios.run_scenario(cfg)
        finally:
            tracemalloc.stop()
        # the imprint pulse, then one sequence per trial
        assert len(held) == 4
        for k in (2, 3):
            assert held[k] - held[1] <= 0.5 * stack_bytes, k
            assert peaks[k] - peaks[1] <= 0.5 * stack_bytes, k
