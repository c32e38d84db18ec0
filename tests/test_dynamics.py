"""Pulse evolution checks against closed-form two-level physics.

With a spatially uniform coupling the trap and meanfield act as the
identity in order space, so total populations obey the textbook two-level
formulas exactly; those serve as machine-precision oracles.  Structured
beams are checked through conserved quantities, step-halving consistency
and the winding they imprint.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from ramanvortex import dynamics
from ramanvortex.condensate import (TrapSpec, g2d_from_tf_radius,
                                    gaussian_profile, thomas_fermi_profile)
from ramanvortex.dynamics import (PulseSpec, _check_edges, _check_norm,
                                  calibrate_pi_pulse, detuning_ladder,
                                  evolve_free, evolve_pulse, run_sequence)
from ramanvortex.errors import (CalibrationError, SimulationError,
                                StepSizeError, TruncationError)
from ramanvortex.grid import (MAX_PHASE_PER_STEP, Grid2D, LadderState,
                              TransverseField, bilinear_sample)
from ramanvortex.imaging import time_of_flight
from ramanvortex.optics import (BeamSpec, CouplingMap, coupling_map,
                                mode_field, scaled_coupling,
                                uniform_coupling)

NU_Y_HZ = 40.0 / math.sqrt(2.0)
NU_Z_HZ = 40.0


@pytest.fixture(scope="module")
def trap():
    return TrapSpec(NU_Y_HZ, NU_Z_HZ)


@pytest.fixture(scope="module")
def g2d(trap, units):
    return g2d_from_tf_radius(trap, 30e-6, units)


def packet_state(grid, trap, n_max=3):
    return LadderState.from_single_order(gaussian_profile(trap, grid).field,
                                         n_max)


def logged_drift(before, after):
    """The norm drift of a stage as its DEBUG record gives it: the total
    density summed before, each order's population summed after."""
    norm = float(before.total_density().sum() * before.grid.cell_area)
    drift = sum(after.population(n) for n in after.orders) - norm
    return f"norm drift {drift:.3g} (limit {1e-9 * max(norm, 1.0):.3g})"


def lg_g_coupling(grid, peak_rate, rel_phase=0.0, winding=1):
    lg = BeamSpec("lg", 85e-6, winding=winding)
    g = BeamSpec("gaussian", 175e-6)
    return coupling_map(lg, g, peak_rate, rel_phase, grid)


def loop_winding(values, grid, radius_m):
    angles = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    r = radius_m / grid.units.length_m
    samples = bilinear_sample(values, grid.y, grid.z,
                              r * np.cos(angles), r * np.sin(angles))
    steps = np.diff(np.angle(samples), append=np.angle(samples[0]))
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return steps.sum() / (2.0 * np.pi)


class TestDetuningLadder:
    def test_single_step_resonance_is_exact(self):
        ladder = detuning_ladder(4.0, 3)
        assert ladder[3 + 1] == 0.0

    def test_direct_double_step_resonance_is_exact(self):
        ladder = detuning_ladder(8.0, 3)
        assert ladder[3 + 2] == 0.0

    def test_sequential_double_step_resonance_is_exact(self):
        ladder = detuning_ladder(12.0, 3)
        assert ladder[3 + 2] - ladder[3 + 1] == 0.0

    def test_zero_detuning_is_symmetric(self):
        ladder = detuning_ladder(0.0, 2)
        assert ladder[2 - 1] == ladder[2 + 1] == 4.0

    def test_formula(self):
        ladder = detuning_ladder(5.5, 3)
        for i, n in enumerate(range(-3, 4)):
            assert ladder[i] == 4.0 * n * n - n * 5.5

    def test_bad_n_max(self):
        with pytest.raises(SimulationError):
            detuning_ladder(4.0, 0)


class TestUniformRabi:
    """Trap off, no interactions: populations are exactly two-level."""

    def run_segments(self, grid, trap, omega_int, delta, n_segments,
                     t_total_int, dt_int):
        units = grid.units
        rate = omega_int / units.time_s
        state = packet_state(grid, trap)
        seg_s = units.time_to_si(t_total_int / n_segments)
        pulse = PulseSpec(uniform_coupling(rate, grid), delta, seg_s,
                          trap_on=False)
        dt_s = units.time_to_si(dt_int)
        out = []
        for k in range(n_segments):
            state = evolve_pulse(state, pulse, trap, 0.0, dt_s)
            out.append((t_total_int * (k + 1) / n_segments,
                        state.population(1)))
        return out

    def test_resonant_populations_follow_sin_squared(self, grid64, trap):
        omega = 0.004
        t_total = 2.0 * (2.0 * math.pi / omega)  # two Rabi cycles
        for t, p1 in self.run_segments(grid64, trap, omega, 4.0, 12,
                                       t_total, 3.0):
            assert p1 == pytest.approx(math.sin(omega * t / 2.0) ** 2,
                                       abs=1e-6)

    def test_detuned_peak_is_half_at_generalized_frequency(self, grid64, trap):
        omega = 0.02
        delta = 4.0 - omega  # ladder detuning of order 1 equals omega
        gen = math.sqrt(2.0) * omega
        t_total = 2.0 * math.pi / gen  # one generalized cycle
        history = self.run_segments(grid64, trap, omega, delta, 8,
                                    t_total, 2.0)
        for t, p1 in history:
            assert p1 == pytest.approx(0.5 * math.sin(gen * t / 2.0) ** 2,
                                       abs=1e-4)
        peak = max(p for _, p in history)
        assert peak == pytest.approx(0.5, abs=1e-4)


class TestStrangConsistency:
    def test_halving_dt_changes_state_below_tolerance(self, grid128, trap,
                                                      g2d, units):
        state = packet_state(grid128, trap)
        coupling = lg_g_coupling(grid128, 2.0e4)
        pulse = PulseSpec(coupling, 4.0, 30e-6)
        coarse = evolve_pulse(state, pulse, trap, g2d)
        fine = evolve_pulse(state, pulse, trap, g2d,
                            dt_s=units.time_to_si(0.015))
        diff = coarse.values - fine.values
        l2 = math.sqrt(float(np.sum(np.abs(diff) ** 2) * grid128.cell_area))
        assert l2 < 1e-6

    def test_pulse_splits_into_two_half_pulses(self, grid64, trap, g2d, units):
        state = packet_state(grid64, trap)
        coupling = lg_g_coupling(grid64, 3.0e4)
        dt_s = units.time_to_si(0.04)
        whole = evolve_pulse(state, PulseSpec(coupling, 4.0, 40e-6), trap,
                             g2d, dt_s)
        half = PulseSpec(coupling, 4.0, 20e-6)
        parts = evolve_pulse(evolve_pulse(state, half, trap, g2d, dt_s),
                             half, trap, g2d, dt_s)
        assert np.allclose(whole.values, parts.values, atol=1e-10)

    def test_pulse_error_is_second_order(self, units, trap, g2d):
        grid = Grid2D(32, 32, 160e-6, 160e-6, units)
        state = LadderState.from_single_order(
            thomas_fermi_profile(trap, g2d, grid).field, 3)
        pulse = PulseSpec(lg_g_coupling(grid, 1.0e5), 4.0, 30e-6)

        def run(n_steps):
            # a hair above duration / n so that rounding cannot add a step
            dt_s = pulse.duration_s / n_steps * (1.0 + 1e-9)
            return evolve_pulse(state, pulse, trap, g2d, dt_s).values

        reference = run(1280)
        errors = [np.linalg.norm(run(n) - reference) for n in (40, 80, 160)]
        # Strang error falls 4x per halving; a first-order slip, 2x
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5


class TestLadderPropagator:
    """The per-point unitary against a dense matrix exponential."""

    N_MAX = 3
    DT = 0.1

    @pytest.fixture()
    def ladder(self, units):
        # 32^2: more distinct |omega| than one chunk of the eigh table
        grid = Grid2D(32, 32, 160e-6, 160e-6, units)
        coupling = lg_g_coupling(grid, 2.0e5, rel_phase=0.7)
        assert (np.unique(np.abs(coupling.omega.values)).size
                > dynamics._LADDER_CHUNK)
        deltas = detuning_ladder(4.0, self.N_MAX)
        prop = dynamics._LadderPropagator(coupling, deltas, self.N_MAX,
                                          self.DT, units)
        omega = units.rate_to_internal(1.0) * coupling.omega.values.ravel()
        return prop, omega, deltas

    @staticmethod
    def columns(prop, n_pts, dim):
        """U[i, j, p] read back through apply on basis stacks."""
        cols = []
        for j in range(dim):
            basis = np.zeros((dim, n_pts), dtype=complex)
            basis[j] = 1.0
            cols.append(prop.apply(basis, np.ones(n_pts)))
        return np.stack(cols, axis=1)

    def test_matches_dense_exponential(self, ladder):
        prop, omega, deltas = ladder
        dim = len(deltas)
        u = self.columns(prop, omega.size, dim)
        # the coupling phase winds around the beam axis at the centre
        assert np.ptp(np.angle(omega)) > 6.0
        # the first points whose |omega| ends one chunk and starts the next
        rank = np.unique(np.abs(omega), return_inverse=True)[1]
        seam = [int(np.flatnonzero(rank == k)[0])
                for k in (dynamics._LADDER_CHUNK - 1, dynamics._LADDER_CHUNK)]
        for p in (0, 100, *seam, 528, 540, omega.size - 1):
            h = (np.diag(deltas).astype(complex)
                 + np.diag(np.full(dim - 1, omega[p] / 2), -1)
                 + np.diag(np.full(dim - 1, np.conj(omega[p]) / 2), 1))
            expected = scipy.linalg.expm(-1j * self.DT * h)
            assert np.max(np.abs(u[:, :, p] - expected)) < 1e-12, p

    def test_is_unitary_at_every_point(self, ladder):
        prop, omega, deltas = ladder
        dim = len(deltas)
        u = self.columns(prop, omega.size, dim)
        product = np.einsum("ikp,jkp->ijp", u, u.conj())
        assert np.max(np.abs(product - np.eye(dim)[:, :, None])) < 1e-13


def off_centre_coupling(grid):
    """A winding-1 field about (7.3, -4.1) um, off every grid point, so
    that almost no two points share |omega|: 3899 distinct of 4096 at
    64^2."""
    y = grid.mesh_y - 7.3e-6 / grid.units.length_m
    z = grid.mesh_z + 4.1e-6 / grid.units.length_m
    w = 85e-6 / grid.units.length_m
    return CouplingMap(TransverseField(
        grid, 2.0e5 * (y + 1j * z) / w * np.exp(-(y * y + z * z) / w**2
                                                 + 0.7j)))


def reference_ladder_unitary(coupling, delta_recoils, n_max, dt, units):
    """The ladder unitary as built before the sort by |omega|: one eigh
    per grid point, over blocks of 256 points in grid order."""
    omega = units.rate_to_internal(1.0) * coupling.omega.values.ravel()
    dim = 2 * n_max + 1
    idx = np.arange(dim)
    n_orders = np.arange(-n_max, n_max + 1, dtype=float)
    unitary = np.empty((dim, dim, omega.size), dtype=np.complex128)
    for start in range(0, omega.size, 256):
        part = omega[start:start + 256]
        s = 0.5 * np.abs(part)
        tri = np.zeros((part.size, dim, dim))
        tri[:, idx, idx] = delta_recoils
        tri[:, idx[1:], idx[:-1]] = s[:, None]
        tri[:, idx[:-1], idx[1:]] = s[:, None]
        w, v = np.linalg.eigh(tri)
        m = (v * np.exp(-1j * dt * w)[:, None, :]) @ v.transpose(0, 2, 1)
        wind = np.exp(1j * np.angle(part)[:, None] * n_orders)
        m *= wind[:, :, None] * wind[:, None, :].conj()
        unitary[:, :, start:start + part.size] = m.transpose(1, 2, 0)
    return unitary


def reference_ladder_apply(unitary, flat, phase):
    """The position-space step before apply ran in place, in blocks: one
    (dim, n_pts) product per column added up in order, then the phase."""
    out = unitary[:, 0] * flat[0]
    for j in range(1, len(flat)):
        out += unitary[:, j] * flat[j]
    out *= phase
    return out


class TestLadderPropagatorAgainstReference:
    """The build over distinct |omega| and the blocked in-place apply give
    the per-point build and the column-by-column product bitwise."""

    N_MAX = 3
    DT = 0.1

    # table: bytes per table of the build, None for the default; 300
    # matrices of 9 x 9 split the 64^2 couplings over several tables,
    # each ending in a part-filled eigh chunk
    @pytest.mark.parametrize("points, case, n_max, table", [
        (32, "centred", 3, None), (64, "centred", 3, None),
        (64, "centred", 4, 300 * 81 * 16), (128, "centred", 3, None),
        (64, "off_centre", 3, None), (64, "off_centre", 4, 300 * 81 * 16),
        (32, "uniform", 3, None)])
    def test_build_matches_the_per_point_reference(self, units, monkeypatch,
                                                   points, case, n_max,
                                                   table):
        if table is not None:
            values = table // (16 * (2 * n_max + 1) ** 2)
            assert values % dynamics._LADDER_CHUNK
            monkeypatch.setattr(dynamics, "_TABLE_BYTES", table)
        grid = Grid2D(points, points, 160e-6, 160e-6, units)
        if case == "centred":
            coupling = lg_g_coupling(grid, 2.0e5, rel_phase=0.7)
        elif case == "off_centre":
            coupling = off_centre_coupling(grid)
        else:
            coupling = uniform_coupling(2.0e5, grid)
        s = np.abs(coupling.omega.values)
        # centred beams repeat |omega|, the uniform one has a single value
        # and the off-centre one (almost) none
        distinct = np.unique(s).size
        assert {"centred": distinct < s.size / 3, "uniform": distinct == 1,
                "off_centre": distinct > s.size / 2}[case]
        assert table is None or distinct > 2 * values
        deltas = detuning_ladder(4.0, n_max)
        prop = dynamics._LadderPropagator(coupling, deltas, n_max, self.DT,
                                          units)
        expected = reference_ladder_unitary(coupling, deltas, n_max, self.DT,
                                            units)
        assert np.array_equal(prop.unitary, expected)

    @pytest.mark.parametrize("points", [32, 128])
    def test_apply_matches_the_reference(self, units, rng, points):
        grid = Grid2D(points, points, 160e-6, 160e-6, units)
        n_pts = points * points
        block = dynamics._APPLY_BLOCK
        # 32^2: one short block; 128^2: several, so the seams are crossed
        assert n_pts < block if points == 32 else n_pts >= 4 * block
        coupling = lg_g_coupling(grid, 2.0e5, rel_phase=0.7)
        prop = dynamics._LadderPropagator(
            coupling, detuning_ladder(4.0, self.N_MAX), self.N_MAX, self.DT,
            units)
        dim = 2 * self.N_MAX + 1
        flat = (rng.standard_normal((dim, n_pts))
                + 1j * rng.standard_normal((dim, n_pts)))
        phase = np.exp(-1j * rng.uniform(0.0, 2.0 * np.pi, n_pts))
        expected = reference_ladder_apply(prop.unitary, flat, phase)
        out = prop.apply(flat, phase)
        assert out is flat
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("n_max", [4, 8])
    def test_build_holds_U_and_one_table_at_most(self, units, n_max):
        # 3899 distinct |omega| at 64^2: a table of one matrix per value
        # would hold 4.8 MiB beside a 5.1 MiB U at n_max 4, and 17.2 MiB
        # beside 18.1 MiB at n_max 8
        grid = Grid2D(64, 64, 160e-6, 160e-6, units)
        coupling = off_centre_coupling(grid)
        deltas = detuning_ladder(4.0, n_max)
        tracemalloc.start()
        try:
            prop = dynamics._LadderPropagator(coupling, deltas, n_max,
                                              self.DT, units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = prop._acc.nbytes + prop._term.nbytes
        # slack: the eigh chunk's temporaries and the per-point index
        # arrays, 0.07 MiB at n_max 4 and 0.87 MiB at n_max 8
        slack = 1.5 * 2**20
        extra = peak - prop.unitary.nbytes - buffers
        assert extra <= dynamics._TABLE_BYTES + slack, extra / 2**20


class TestConservation:
    def test_norm_through_interacting_pulse(self, grid128, trap, g2d):
        state = LadderState.from_single_order(
            thomas_fermi_profile(trap, g2d, grid128).field, 3)
        pulse = PulseSpec(lg_g_coupling(grid128, 1.0e5), 4.0, 30e-6)
        final = evolve_pulse(state, pulse, trap, g2d)
        total = sum(final.population(n) for n in final.orders)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_energy_conserved_without_trap_or_coupling(self, grid64, trap,
                                                       g2d, units):
        from ramanvortex.grid import _fft2_stack

        def energy(state):
            g = units.coupling2d_to_internal(g2d)
            spec = _fft2_stack(state.values.copy())
            kin = float(np.sum(grid64.mesh_ksq * np.abs(spec) ** 2))
            n = np.arange(-state.n_max, state.n_max + 1, dtype=float)
            pops = np.array([state.population(m) for m in state.orders])
            axial = float(np.sum(4.0 * n * n * pops)) / grid64.cell_area
            rho = state.total_density()
            inter = 0.5 * g * float(np.sum(rho * rho))
            return (kin + axial + inter) * grid64.cell_area

        seed = packet_state(grid64, trap)
        ring = mode_field(BeamSpec("lg", 20e-6, winding=1), grid64).values
        mixed = seed.values.copy()
        mixed[seed.index(1)] = 0.6 * ring * np.abs(mixed[seed.index(0)]).max()
        norm = math.sqrt(float(np.sum(np.abs(mixed) ** 2)
                               * grid64.cell_area))
        state = LadderState(grid64, 3, mixed / norm)

        before = energy(state)
        after = energy(evolve_free(state, 3e-4, None, g2d))
        assert after == pytest.approx(before, rel=1e-6)

    def test_free_evolution_conserves_populations(self, grid64, trap, g2d):
        state = packet_state(grid64, trap)
        pulsed = evolve_pulse(state, PulseSpec(lg_g_coupling(grid64, 4.0e4),
                                               4.0, 30e-6), trap, g2d)
        delayed = evolve_free(pulsed, 50e-6, trap, g2d)
        for n in pulsed.orders:
            assert delayed.population(n) == pytest.approx(
                pulsed.population(n), abs=1e-11)


class TestVortexImprint:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_transferred_order_carries_beam_winding(self, grid128, trap, g2d,
                                                    sign):
        state = LadderState.from_single_order(
            thomas_fermi_profile(trap, g2d, grid128).field, 3)
        coupling = lg_g_coupling(grid128, 1.2e5, winding=sign)
        final = evolve_pulse(state, PulseSpec(coupling, 4.0, 30e-6), trap, g2d)
        p1 = final.population(1)
        assert 0.05 < p1 < 0.7
        circulation = loop_winding(final.component(1).values, grid128, 15e-6)
        assert circulation == pytest.approx(sign, abs=1e-6)

    def test_coupling_phase_shifts_transferred_order_globally(self, grid64,
                                                              trap):
        state = packet_state(grid64, trap)
        theta = 1.1
        base = PulseSpec(uniform_coupling(5.0e4, grid64), 4.0, 20e-6,
                         trap_on=False)
        shifted = PulseSpec(scaled_coupling(uniform_coupling(5.0e4, grid64),
                                            np.exp(1j * theta)),
                            4.0, 20e-6, trap_on=False)
        a = evolve_pulse(state, base, trap, 0.0)
        b = evolve_pulse(state, shifted, trap, 0.0)
        assert np.allclose(b.component(1).values,
                           a.component(1).values * np.exp(1j * theta),
                           atol=1e-12)
        assert np.allclose(b.component(0).values, a.component(0).values,
                           atol=1e-12)

    def test_grid_mismatch_rejected(self, grid64, grid128, trap):
        state = packet_state(grid128, trap)
        pulse = PulseSpec(uniform_coupling(1.0e4, grid64), 4.0, 1e-5)
        with pytest.raises(SimulationError):
            evolve_pulse(state, pulse, trap, 0.0)


class TestSequence:
    def test_log_records_per_pulse_populations(self, grid64, trap, g2d):
        state = packet_state(grid64, trap)
        pulses = (
            PulseSpec(lg_g_coupling(grid64, 4.0e4), 4.0, 30e-6),
            PulseSpec(uniform_coupling(2.0e4, grid64), 4.0, 30e-6),
        )
        final, log = run_sequence(state, pulses, trap, g2d)
        assert log[0]["delta_nu_recoils"] == 4.0
        assert log[1]["duration_s"] == 30e-6
        for rec in log:
            assert sum(rec["populations"].values()) == pytest.approx(
                1.0, abs=1e-9)
        assert final.population(1) == pytest.approx(
            log[1]["populations"][1], abs=0.0)

    def test_inter_pulse_delay_matches_explicit_free_evolution(self, grid64,
                                                               trap, g2d):
        state = packet_state(grid64, trap)
        p1 = PulseSpec(lg_g_coupling(grid64, 4.0e4), 4.0, 20e-6,
                       delay_after_s=40e-6)
        p2 = PulseSpec(uniform_coupling(2.0e4, grid64), 0.0, 20e-6)
        with_delay, _ = run_sequence(state, (p1, p2), trap, g2d)
        manual = evolve_pulse(
            evolve_free(evolve_pulse(state, p1, trap, g2d), 40e-6, trap, g2d),
            p2, trap, g2d)
        assert np.allclose(with_delay.values, manual.values, atol=1e-12)

    def test_logs_one_record_per_pulse_and_per_delay(self, units, trap,
                                                      g2d, caplog):
        grid = Grid2D(32, 32, 160e-6, 160e-6, units)
        pulses = (
            PulseSpec(uniform_coupling(2.0e4, grid), 4.0, 10e-6,
                      delay_after_s=20e-6),
            PulseSpec(uniform_coupling(2.0e4, grid), 4.0, 10e-6),
            PulseSpec(uniform_coupling(2.0e4, grid), 0.0, 10e-6,
                      trap_on=False, delay_after_s=30e-6),
        )
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.dynamics"):
            run_sequence(packet_state(grid, trap), pulses, trap, g2d)
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "pulse 1e-05 s at 4 recoils", "delay 2e-05 s",
            "pulse 1e-05 s at 4 recoils", "pulse 1e-05 s at 0 recoils",
            "delay 3e-05 s"]

    def test_sequence_validation(self, grid64):
        with pytest.raises(SimulationError):
            PulseSpec(uniform_coupling(1.0e4, grid64), 4.0, 1e-5,
                      delay_after_s=-1e-5)
        with pytest.raises(SimulationError):
            PulseSpec(uniform_coupling(1.0e4, grid64), 4.0, 0.0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_split_sequence_runs_like_the_whole(self, units, trap, g2d, k):
        grid = Grid2D(32, 32, 160e-6, 160e-6, units)
        state = packet_state(grid, trap)
        pulses = (
            PulseSpec(lg_g_coupling(grid, 4.0e4), 4.0, 10e-6,
                      delay_after_s=20e-6),
            PulseSpec(uniform_coupling(2.0e4, grid), 0.0, 10e-6,
                      trap_on=False, delay_after_s=30e-6),
            PulseSpec(uniform_coupling(2.0e4, grid), 4.0, 10e-6,
                      delay_after_s=10e-6),
        )
        whole, whole_log = run_sequence(state, pulses, trap, g2d)
        head, head_log = run_sequence(state, pulses[:k], trap, g2d)
        tail, tail_log = run_sequence(head, pulses[k:], trap, g2d)
        assert np.array_equal(tail.values, whole.values)
        assert ([rec["populations"] for rec in head_log + tail_log]
                == [rec["populations"] for rec in whole_log])


class TestResonanceSweep:
    def test_transfer_peaks_at_single_step_resonance(self, grid64, trap,
                                                     units):
        omega = 0.05
        rate = omega / units.time_s
        duration = units.time_to_si(math.pi / omega)
        state = packet_state(grid64, trap)
        detunings = np.linspace(2.0, 6.0, 9)
        transfers = []
        for delta in detunings:
            pulse = PulseSpec(uniform_coupling(rate, grid64), float(delta),
                              duration, trap_on=False)
            transfers.append(
                evolve_pulse(state, pulse, trap, 0.0,
                             units.time_to_si(1.5)).population(1))
        assert detunings[int(np.argmax(transfers))] == 4.0
        assert max(transfers) > 0.9
        assert transfers[3] == pytest.approx(transfers[5], abs=0.05)


class TestCalibration:
    # populations are grid-independent for uniform coupling, so a coarse
    # grid keeps the many probe pulses cheap
    @pytest.fixture()
    def grid32(self, units):
        return Grid2D(32, 32, 160e-6, 160e-6, units)

    def test_uniform_coupling_calibrates_to_pi_over_duration(self, grid32,
                                                             trap):
        gs = gaussian_profile(trap, grid32)
        duration = 100e-6
        rate, achieved = calibrate_pi_pulse(
            gs, uniform_coupling(1.0e4, grid32), 4.0, duration, trap, 0.0)
        assert rate == pytest.approx(math.pi / duration, rel=0.05)
        assert achieved > 0.995

    def test_monotone_edge_raises(self, grid32, trap, monkeypatch):
        # a scan that ends below pi / duration sees the transfer rising
        monkeypatch.setattr(dynamics, "_CALIBRATION_SPAN", (0.2, 0.6))
        monkeypatch.setattr(dynamics, "_CALIBRATION_POINTS", 5)
        gs = gaussian_profile(trap, grid32)
        with pytest.raises(CalibrationError, match="scan edge"):
            calibrate_pi_pulse(gs, uniform_coupling(1.0e4, grid32), 4.0,
                               100e-6, trap, 0.0)


class TestPulseLog:
    @pytest.fixture()
    def grid32(self, units):
        return Grid2D(32, 32, 160e-6, 160e-6, units)

    # a tenfold mean field makes the phase guard, not the cap, set dt
    @pytest.mark.parametrize("g_scale, dt_s, set_by", [
        (1.0, None, "MAX_INTERNAL_STEP"),
        (10.0, None, "the phase guard"),
        (1.0, 1e-7, "the given dt_s"),
    ])
    def test_logs_steps_phase_drift_and_edges_against_limits(
            self, grid32, trap, g2d, units, caplog, g_scale, dt_s, set_by):
        state = packet_state(grid32, trap)
        pulse = PulseSpec(uniform_coupling(2.0e4, grid32), 4.0, 1e-5)
        g = units.coupling2d_to_internal(g_scale * g2d)
        rate = max(float(trap.potential_internal(grid32).max())
                   + g * float(state.total_density().max()),
                   float(grid32.mesh_ksq.max()))
        if dt_s is None:
            dt_limit = min(dynamics.MAX_INTERNAL_STEP,
                           MAX_PHASE_PER_STEP / rate)
        else:
            dt_limit = units.time_to_internal(dt_s)
        t_total = units.time_to_internal(pulse.duration_s)
        n_steps = math.ceil(t_total / dt_limit)
        dt = t_total / n_steps
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.dynamics"):
            out = evolve_pulse(state, pulse, trap, g_scale * g2d, dt_s)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert (f"{n_steps} steps, dt {units.time_to_si(dt):.3g} s "
                f"(set by {set_by})") in message
        assert (f"split phase {dt * rate:.3g} rad per step (limit 0.1)"
                in message)
        assert logged_drift(state, out) in message
        assert message.endswith(
            f"edge populations {out.population(-3):.3g} at n = -3, "
            f"{out.population(3):.3g} at n = 3 (limit 0.001)")

    def test_logs_before_the_edge_guard_raises(self, grid32, trap, g2d,
                                               caplog):
        # a pi pulse on a ladder of orders -1..1 fills the edge order +1
        state = packet_state(grid32, trap, n_max=1)
        pulse = PulseSpec(uniform_coupling(math.pi / 30e-6, grid32), 4.0,
                          30e-6)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.dynamics"):
            with pytest.raises(TruncationError):
                evolve_pulse(state, pulse, trap, g2d)
        (record,) = caplog.records
        assert record.getMessage().endswith("at n = 1 (limit 0.001)")

    def test_delay_logs_one_record_against_limits(self, grid32, trap, g2d,
                                                  units, caplog):
        state = packet_state(grid32, trap)
        t_total = units.time_to_internal(1e-5)
        n_steps = math.ceil(t_total / dynamics.MAX_INTERNAL_STEP)
        dt = units.time_to_si(t_total / n_steps)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.dynamics"):
            out = evolve_free(state, 1e-5, trap, g2d)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith(
            f"delay 1e-05 s: {n_steps} steps, dt {dt:.3g} s (set by "
            f"MAX_INTERNAL_STEP); split phase ")
        assert logged_drift(state, out) in message
        assert message.endswith(
            f"edge populations {out.population(-3):.3g} at n = -3, "
            f"{out.population(3):.3g} at n = 3 (limit 0.001)")


class TestGuards:
    @pytest.fixture()
    def grid32(self, units):
        return Grid2D(32, 32, 160e-6, 160e-6, units)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_pixel_trips_the_pulse(self, grid32, trap, g2d, bad):
        state = packet_state(grid32, trap)
        state.values[state.index(0), 16, 16] = bad
        pulse = PulseSpec(uniform_coupling(2.0e4, grid32), 4.0, 1e-5)
        with pytest.raises(SimulationError, match="NaN or inf"):
            evolve_pulse(state, pulse, trap, g2d)

    # Each way a NaN or inf time can enter from Python; an infinite
    # mean-field window is valid (it covers the whole flight).
    @pytest.mark.parametrize("entry, bad", [
        (entry, bad) for entry in ("duration", "delay", "detuning", "free",
                                   "pulse_dt", "tof_time", "tof_window")
        for bad in (math.nan, math.inf)
        if (entry, bad) != ("tof_window", math.inf)])
    def test_non_finite_time_rejected(self, grid32, trap, g2d, entry, bad):
        state = packet_state(grid32, trap)
        coupling = uniform_coupling(2.0e4, grid32)
        pulse = PulseSpec(coupling, 4.0, 1e-5)
        calls = {
            "duration": lambda: PulseSpec(coupling, 4.0, bad),
            "delay": lambda: PulseSpec(coupling, 4.0, 1e-5,
                                       delay_after_s=bad),
            "detuning": lambda: PulseSpec(coupling, bad, 1e-5),
            "free": lambda: evolve_free(state, bad, trap, g2d),
            "pulse_dt": lambda: evolve_pulse(state, pulse, trap, g2d,
                                             dt_s=bad),
            "tof_time": lambda: time_of_flight(state, bad, 1e-4, g2d),
            "tof_window": lambda: time_of_flight(state, 1e-3, bad, g2d),
        }
        with pytest.raises(SimulationError, match=r"nan|inf"):
            calls[entry]()

    def test_nan_trips_norm_and_edge_guards(self, grid32, trap, g2d,
                                            monkeypatch, caplog):
        with pytest.raises(SimulationError):
            _check_norm(math.nan, 1e-9, "a pulse")
        with pytest.raises(TruncationError):
            _check_edges({2: math.nan})
        # a NaN that the loop leaves in the edge order reaches the
        # populations; the norm guard, which runs first, trips on it
        loop = dynamics._strang_evolve

        def nan_at_edge(*args):
            out = loop(*args)
            out[-1, 0, 0] = math.nan
            return out

        monkeypatch.setattr(dynamics, "_strang_evolve", nan_at_edge)
        state = packet_state(grid32, trap, n_max=2)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.dynamics"):
            with pytest.raises(SimulationError, match="drifted by nan"):
                evolve_free(state, 1e-5, trap, g2d)
        (record,) = caplog.records
        assert "nan at n = 2 (limit 0.001)" in record.getMessage()

    def test_norm_drift_trips_free_evolution(self, grid32, trap, g2d,
                                             monkeypatch, caplog):
        loop = dynamics._strang_evolve
        monkeypatch.setattr(dynamics, "_strang_evolve",
                            lambda *args: loop(*args) * (1.0 + 1e-6))
        state = packet_state(grid32, trap)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.dynamics"):
            with pytest.raises(SimulationError,
                               match="during free evolution"):
                evolve_free(state, 1e-5, trap, g2d)
        # the record is written before the guard raises
        (record,) = caplog.records
        assert record.getMessage().startswith("delay 1e-05 s: ")
        assert "(limit 1e-09)" in record.getMessage()

    def test_oversized_explicit_dt_rejected(self, grid128, trap):
        state = packet_state(grid128, trap)
        pulse = PulseSpec(uniform_coupling(1.0e4, grid128), 4.0, 1e-4)
        with pytest.raises(StepSizeError):
            evolve_pulse(state, pulse, trap, 0.0, dt_s=2e-5)

    def test_ladder_edge_population_raises(self, grid64, trap, units):
        state = packet_state(grid64, trap, n_max=2)
        rate = 40.0 / units.time_s
        duration = units.time_to_si(7.0 / 40.0)
        pulse = PulseSpec(uniform_coupling(rate, grid64), 0.0, duration,
                          trap_on=False)
        with pytest.raises(TruncationError):
            evolve_pulse(state, pulse, trap, 0.0)
