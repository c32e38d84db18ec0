"""Expansion, absorption imaging, analytic patterns, PGM round trips.

Free-expansion oracle: a Gaussian wavepacket psi ~ exp(-rho^2/(2 a0))
evolves with a(t) = a0 + i (hbar/M) t, so the density 1/e radius obeys
w(t)^2 = w0^2 (1 + (hbar t / (M w0^2))^2).  In recoil units hbar/M = 2.
A single-ring vortex mode shares the same complex-width law, so its
bright-ring radius grows by the identical factor and the core never fills.

Interacting oracle, the free-expansion virial law of the 2D contact GPE
(Pitaevskii & Rosch, Phys. Rev. A 55, R853 (1997)): with the trap off,
<r^2>(t) = <r^2>(0) + 2 E t^2 / M for a real initial state of energy E
per particle, interaction included, since d^2<r^2>/dt^2 = 4 E / M exactly
in 2D.  It holds only when the mean field acts for the whole flight.
"""

import logging
import math
import re

import numpy as np
import pytest
from scipy.constants import hbar

from ramanvortex import imaging, scenarios
from ramanvortex.condensate import (TrapSpec, g2d_from_tf_radius,
                                    gpe_energy, relax_ground_state,
                                    thomas_fermi_profile)
from ramanvortex.config import ExperimentConfig
from ramanvortex.dynamics import run_sequence
from ramanvortex.errors import GridOverflowError, SimulationError
from ramanvortex.grid import (Grid2D, LadderState, TransverseField,
                             bilinear_sample)
from ramanvortex.imaging import (ImagePlane, absorption_image,
                                 analytic_pattern, radial_profile, read_pgm,
                                 time_of_flight, write_pgm)


def gaussian_state(grid, w0_m, n_max=1, order=0):
    w = w0_m / grid.units.length_m
    psi = np.exp(-(grid.mesh_y**2 + grid.mesh_z**2) / (2.0 * w * w))
    psi = psi.astype(np.complex128)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_area)
    return LadderState.from_single_order(TransverseField(grid, psi), n_max,
                                         order)


def vortex_values(grid, w0_m, winding):
    w = w0_m / grid.units.length_m
    rho = np.hypot(grid.mesh_y, grid.mesh_z)
    phi = np.arctan2(grid.mesh_z, grid.mesh_y)
    psi = rho * np.exp(-rho**2 / (2.0 * w * w)) * np.exp(1j * winding * phi)
    return psi / math.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_area)


def thomas_fermi_cloud(grid):
    """The default config's 30 um Thomas-Fermi cloud on grid, and its g2d."""
    trap = TrapSpec(40.0 / math.sqrt(2.0), 40.0)
    g2d = g2d_from_tf_radius(trap, 30e-6, grid.units)
    return thomas_fermi_profile(trap, g2d, grid).field.values, g2d


def mean_rho_sq(state):
    dens = state.total_density()
    g = state.grid
    return float(np.sum(dens * (g.mesh_y**2 + g.mesh_z**2)) / dens.sum())


class TestTimeOfFlight:
    W0_M = 5e-6
    T_S = 0.018

    def expansion_factor_sq(self, units):
        # w(t)^2 / w0^2 = 1 + (2 t / w0^2)^2 in recoil units.
        w0 = self.W0_M / units.length_m
        t = self.T_S / units.time_s
        return 1.0 + (2.0 * t / w0**2) ** 2

    def test_gaussian_width_follows_free_expansion_law(self, grid128, units):
        state = gaussian_state(grid128, self.W0_M)
        before = mean_rho_sq(state)
        out = time_of_flight(state, self.T_S, 0.0, 0.0)
        ratio = mean_rho_sq(out) / before
        assert ratio == pytest.approx(self.expansion_factor_sq(units),
                                      rel=1e-3)

    def test_expansion_law_in_si_terms(self, units):
        # Same law written with SI constants, as a cross-check on the
        # unit conversions: hbar t / (M w0^2).
        spread = hbar * self.T_S / (units.mass_kg * self.W0_M**2)
        assert 1.0 + spread**2 == pytest.approx(
            self.expansion_factor_sq(units), rel=1e-9)

    def test_zero_time_is_identity_on_padded_grid(self, grid64):
        state = gaussian_state(grid64, 10e-6)
        out = time_of_flight(state, 0.0, 5e-4, 1e-41)
        assert out.grid.extent_y_m == pytest.approx(2 * grid64.extent_y_m)
        assert out.grid.pitch_y_m == pytest.approx(grid64.pitch_y_m)
        q = grid64.n_y // 2
        block = out.values[:, q:q + grid64.n_z, q:q + grid64.n_y]
        assert np.allclose(block, state.values, atol=1e-15)
        assert out.axial_shift_m == {-1: 0.0, 0: 0.0, 1: 0.0}

    def test_norm_preserved_through_interacting_window(self, grid128, units):
        state = gaussian_state(grid128, 10e-6)
        g2d = units.coupling2d_to_si(1000.0)
        out = time_of_flight(state, 6e-3, 5e-4, g2d)
        norm = np.sum(out.total_density()) * out.grid.cell_area
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_repulsion_speeds_up_expansion(self, grid128, units):
        state = gaussian_state(grid128, 10e-6)
        free = time_of_flight(state, 6e-3, 0.0, 0.0)
        pushed = time_of_flight(state, 6e-3, 5e-4,
                                units.coupling2d_to_si(3000.0))
        assert mean_rho_sq(pushed) > 1.05 * mean_rho_sq(free)

    def test_free_expansion_meets_the_virial_law(self, grid64, units):
        # The relaxed 30 um cloud at 64^2, flown 1 ms with the window
        # spanning the whole flight.  Measured: the <r^2> growth misses
        # 2 E t^2 / M by -1.66e-4 of itself (3.6e-7 at 128^2); the
        # Thomas-Fermi seed misses by -6.9e-3, its truncated edge.
        trap = TrapSpec(40.0 / math.sqrt(2.0), 40.0)
        g2d = g2d_from_tf_radius(trap, 30e-6, units)
        cloud = relax_ground_state(thomas_fermi_profile(trap, g2d, grid64),
                                   trap, g2d).field
        state = LadderState.from_single_order(cloud, 1)
        t_s = 1e-3
        out = time_of_flight(state, t_s, t_s, g2d, pad_factor=4)
        energy = gpe_energy(cloud, TrapSpec(0.0, 0.0), g2d)
        growth = 2.0 * energy * t_s**2 / units.mass_kg
        r_sq = [mean_rho_sq(s) * units.length_m**2 for s in (state, out)]
        # not pytest.approx, whose absolute 1e-12 is 10% of a growth in m^2
        assert abs(r_sq[1] - r_sq[0] - growth) <= 3e-4 * growth

    def test_axial_separation_bookkeeping(self, grid64, units):
        state = gaussian_state(grid64, 10e-6)
        out = time_of_flight(state, 1e-3, 0.0, 0.0)
        # Two-photon recoil velocity 2 hbar k / M, about 5.9 cm/s here.
        v2 = 2.0 * hbar * units.wavenumber_per_m / units.mass_kg
        assert out.axial_shift_m[1] == pytest.approx(v2 * 1e-3, rel=1e-12)
        assert out.axial_shift_m[-1] == pytest.approx(-v2 * 1e-3, rel=1e-12)
        assert out.axial_shift_m[0] == 0.0

    def test_vortex_ring_scales_and_core_stays_empty(self, grid128, units):
        state = LadderState.from_single_order(
            TransverseField(grid128, vortex_values(grid128, self.W0_M, 1)), 1)
        before = mean_rho_sq(state)
        out = time_of_flight(state, self.T_S, 0.0, 0.0)
        assert mean_rho_sq(out) / before == pytest.approx(
            self.expansion_factor_sq(units), rel=1e-3)
        dens = out.total_density()
        center = dens[out.grid.n_z // 2, out.grid.n_y // 2]
        assert center < 1e-12 * dens.max()

    def test_overflow_guard_names_required_padding(self, grid128):
        state = gaussian_state(grid128, self.W0_M)
        with pytest.raises(GridOverflowError, match="pad_factor"):
            time_of_flight(state, 0.2, 0.0, 0.0)

    # inf - inf in the spectral step is the expected RuntimeWarning
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("window_s", [0.0, 5e-4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_pixel_trips_a_guard(self, units, window_s, bad):
        grid = Grid2D(32, 32, 80e-6, 80e-6, units)
        guard = "phase rate" if window_s else "boundary mass"
        # the bright order 0, then order 1: an edge order faint enough for
        # the window to prune, were it finite; the rate guard reads every
        # order first
        for order in (0, 1):
            state = gaussian_state(grid, 10e-6)
            state.values[state.index(1)] = 1e-7 * vortex_values(grid, 10e-6,
                                                                1)
            state.values[state.index(order), 16, 16] = bad
            with pytest.raises(SimulationError,
                               match=f"{guard} .*NaN or inf"):
                time_of_flight(state, 1e-3, window_s,
                               units.coupling2d_to_si(1000.0))

    def test_meanfield_window_error_is_second_order(self, units,
                                                    monkeypatch):
        # The window's step count is ceil(T * g rho_max /
        # WINDOW_PHASE_PER_STEP); a limit of T * g rho_max / (n - 1/2)
        # gives exactly n steps of T / n.
        grid = Grid2D(32, 32, 80e-6, 80e-6, units)
        state = gaussian_state(grid, 10e-6)
        state.values[state.index(1)] = 0.5 * vortex_values(grid, 10e-6, 1)
        g2d = units.coupling2d_to_si(1000.0)
        window_s = 5e-4
        t = units.time_to_internal(window_s)
        rate = (units.coupling2d_to_internal(g2d)
                * state.total_density().max())

        def window(n_steps):
            monkeypatch.setattr(imaging, "WINDOW_PHASE_PER_STEP",
                                t * rate / (n_steps - 0.5))
            return time_of_flight(state, window_s, window_s, g2d).values

        reference = window(256)
        errors = [np.linalg.norm(window(n) - reference) for n in (4, 8, 16)]
        # Strang error falls 4x per halving; a first-order slip, 2x
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5

    def test_pruned_order_flies_the_whole_flight(self, units):
        # A faint order skips the mean field, not the window's free flight.
        grid = Grid2D(32, 32, 80e-6, 80e-6, units)
        state = gaussian_state(grid, 10e-6)
        faint = 1e-7 * vortex_values(grid, 10e-6, 1)
        state.values[state.index(1)] = faint
        assert state.population(1) == pytest.approx(1e-14)
        out = time_of_flight(state, 1e-3, 5e-4,
                             units.coupling2d_to_si(1000.0))
        alone = time_of_flight(
            LadderState.from_single_order(TransverseField(grid, faint), 1, 1),
            1e-3, 5e-4, 0.0)
        k = state.index(1)
        assert np.linalg.norm(out.values[k] - alone.values[k]) <= (
            1e-12 * np.linalg.norm(alone.values[k]))

    def test_logs_window_steps_and_boundary_mass_against_limits(
            self, units, caplog):
        # order -1 is empty and order 1 faint: the rule prunes both
        grid = Grid2D(32, 32, 80e-6, 80e-6, units)
        state = gaussian_state(grid, 10e-6)
        state.values[state.index(1)] = 1e-4 * vortex_values(grid, 10e-6, 1)
        g2d = units.coupling2d_to_si(1000.0)
        window_s = 5e-4
        phase = (units.time_to_internal(window_s)
                 * units.coupling2d_to_internal(g2d)
                 * state.total_density().max())
        n_steps = math.ceil(phase / imaging.WINDOW_PHASE_PER_STEP)
        faint = state.population(1)
        share = faint / (state.population(0) + faint)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.imaging"):
            time_of_flight(state, 1e-3, window_s, g2d)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert f"window of {n_steps} steps, dt {window_s / n_steps:.3g} s" in (
            message)
        assert "over 1 of 3 orders" in message
        assert f"g*rho_max*dt {phase / n_steps:.3g} rad (limit 0.03)" in (
            message)
        assert (f"pruned orders [-1, 1], window phase x pruned share "
                f"{phase * share:.3g} (limit 1e-06)") in message
        assert "boundary mass fraction" in message
        assert message.endswith("(limit 1e-06)")

    def test_window_steps_follow_the_meanfield_phase_not_the_pitch(
            self, units, monkeypatch):
        # Same cloud and extent, pitch halved: the Nyquist kinetic rate
        # grows 4x, the window's step count must not.
        window_s = 5e-4
        steps = []
        window = imaging._strang_spectrum

        def counted(values, ksq, dt, n_steps, g, *args):
            steps.append(n_steps)
            return window(values, ksq, dt, n_steps, g, *args)

        monkeypatch.setattr(imaging, "_strang_spectrum", counted)
        expected = []
        for points in (64, 128):
            grid = Grid2D(points, points, 160e-6, 160e-6, units)
            cloud, g2d = thomas_fermi_cloud(grid)
            state = LadderState.from_single_order(
                TransverseField(grid, cloud), 1)
            phase = (units.time_to_internal(window_s)
                     * units.coupling2d_to_internal(g2d)
                     * state.total_density().max())
            expected.append(math.ceil(phase / imaging.WINDOW_PHASE_PER_STEP))
            time_of_flight(state, window_s, window_s, g2d)
        assert steps == expected
        assert steps[0] == steps[1]

    def test_default_window_meets_its_error_budget(self, grid64, units,
                                                   monkeypatch):
        # A Thomas-Fermi cloud with a charge-1 vortex order split off it
        # point by point, as a Raman pulse does.  Largest density error of
        # any order, after the whole flight, against 8x finer window
        # steps: within 1e-6 of the image peak.
        cloud, g2d = thomas_fermi_cloud(grid64)
        waist = 85e-6 / units.length_m
        r = np.hypot(grid64.mesh_y, grid64.mesh_z) / waist
        turn = math.sqrt(2.0 * math.e) * r * np.exp(-r * r)  # peak 1 rad
        state = LadderState(grid64, 1)
        state.values[state.index(0)] = cloud * np.cos(turn)
        state.values[state.index(1)] = cloud * np.sin(turn) * np.exp(
            1j * np.arctan2(grid64.mesh_z, grid64.mesh_y))

        def flown_densities():
            out = time_of_flight(state, 6e-3, 5e-4, g2d)
            return np.abs(out.values) ** 2

        default = flown_densities()
        monkeypatch.setattr(imaging, "WINDOW_PHASE_PER_STEP",
                            imaging.WINDOW_PHASE_PER_STEP / 8.0)
        finer = flown_densities()
        assert np.abs(default - finer).max() <= 1e-6 * finer.max()

    def test_pruning_meets_its_budget(self, caplog, monkeypatch):
        # The benchmark vortex workload's pulse at 64^2, flown with the
        # default 500 us window.  Largest density error of any order,
        # after the whole flight, against a window that prunes nothing:
        # within _PRUNE_BUDGET of the image peak, and within the window
        # phase times the pruned share that the rule bounds.
        cfg = ExperimentConfig.from_mapping({
            "schema_version": 1,
            "scenario": "single_vortex",
            "grid": {"points_y": 64, "points_z": 64, "n_max": 3},
            "beams": {"lg": {"kind": "lg", "waist_m": 8.5e-5, "winding": 1},
                      "g": {"kind": "gaussian", "waist_m": 1.75e-4}},
            "pulses": [{"absorb": "lg", "emit": "g",
                        "rabi_rate_rad_s": 2.19e5, "detuning_recoils": 4.0,
                        "duration_s": 1.0e-5}]})
        ctx = scenarios._prepare(cfg)
        state, _ = run_sequence(ctx.initial_state(), cfg.pulses(ctx.grid),
                                ctx.trap, ctx.g2d_j_m2)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.imaging"):
            pruned = np.abs(ctx.expand(state).values) ** 2
        (record,) = caplog.records
        assert "pruned orders [-3, -2, 3]," in record.getMessage()
        phi_p = float(re.search(r"pruned share (\S+)",
                                record.getMessage()).group(1))
        budget = imaging._PRUNE_BUDGET
        monkeypatch.setattr(imaging, "_PRUNE_BUDGET", 0.0)
        unpruned = np.abs(ctx.expand(state).values) ** 2
        error = np.abs(pruned - unpruned).max()
        assert error <= phi_p * unpruned.max()
        assert error <= budget * unpruned.max()

    def test_negative_time_and_thin_padding_rejected(self, grid64):
        state = gaussian_state(grid64, 10e-6)
        with pytest.raises(SimulationError):
            time_of_flight(state, -1e-3, 0.0, 0.0)
        with pytest.raises(SimulationError):
            time_of_flight(state, 1e-3, 0.0, 0.0, pad_factor=1.5)


class TestAbsorptionImage:
    W0_M = 10e-6

    def superposed_state(self, grid, shifts=None):
        vals = np.stack([vortex_values(grid, self.W0_M, -1) / math.sqrt(2),
                         np.zeros(grid.shape, dtype=np.complex128),
                         vortex_values(grid, self.W0_M, 1) / math.sqrt(2)])
        return LadderState(grid, 1, vals, axial_shift_m=shifts)

    def test_colocated_orders_interfere(self, grid128):
        image = absorption_image(self.superposed_state(grid128), {-1, 1},
                                 grid128.pitch_y_m)
        # |e^{i phi} + e^{-i phi}|^2 = 4 cos^2 phi: dark along the z axis.
        col = image.pixels[:, grid128.n_y // 2]
        assert col.max() < 1e-25 * image.pixels.max()

    def test_separated_orders_add_densities(self, grid128):
        shifts = {-1: -60e-6, 0: 0.0, 1: 60e-6}
        image = absorption_image(self.superposed_state(grid128, shifts),
                                 {-1, 1}, grid128.pitch_y_m)
        ring = image.pixels[grid128.n_z // 2 + 8, :]
        mirror = image.pixels[:, grid128.n_y // 2 + 8]
        assert image.pixels[grid128.n_z // 2, grid128.n_y // 2] < (
            1e-20 * image.pixels.max())
        assert ring.max() == pytest.approx(mirror.max(), rel=1e-9)

    def test_small_distinct_shifts_add_densities(self, grid128):
        # the shift is all the 2D model knows of the axial motion, so any
        # difference counts, however short the flight
        shifts = {-1: -1e-9, 0: 0.0, 1: 1e-9}
        image = absorption_image(self.superposed_state(grid128, shifts),
                                 {-1, 1}, grid128.pitch_y_m)
        far = absorption_image(
            self.superposed_state(grid128, {-1: -60e-6, 0: 0.0, 1: 60e-6}),
            {-1, 1}, grid128.pitch_y_m)
        assert np.array_equal(image.pixels, far.pixels)

    def test_orders_sharing_a_shift_add_amplitudes(self, grid128):
        shifts = {-1: 20e-6, 0: -5e-6, 1: 20e-6}
        image = absorption_image(self.superposed_state(grid128, shifts),
                                 {-1, 0, 1}, grid128.pitch_y_m)
        in_trap = absorption_image(self.superposed_state(grid128), {-1, 1},
                                   grid128.pitch_y_m)
        assert np.array_equal(image.pixels, in_trap.pixels)

    def test_empty_selection_rejected(self, grid128):
        with pytest.raises(SimulationError, match="empty"):
            absorption_image(self.superposed_state(grid128), set(),
                             grid128.pitch_y_m)

    def test_single_order_ignores_shifts(self, grid128):
        shifts = {-1: -60e-6, 0: 0.0, 1: 60e-6}
        image = absorption_image(self.superposed_state(grid128, shifts), {1},
                                 grid128.pitch_y_m)
        assert image.pixels.max() > 0.0

    def test_resampling_to_coarser_pitch(self, grid128):
        image = absorption_image(self.superposed_state(grid128), {-1, 1},
                                 2.0 * grid128.pitch_y_m)
        assert image.shape == (grid128.n_z // 2, grid128.n_y // 2)
        fine = absorption_image(self.superposed_state(grid128), {-1, 1},
                                grid128.pitch_y_m)
        assert image.pixels.max() == pytest.approx(fine.pixels.max(),
                                                   rel=0.05)

    def test_blur_and_noise_hooks(self, grid128):
        state = self.superposed_state(grid128)
        crisp = absorption_image(state, {1}, grid128.pitch_y_m)
        soft = absorption_image(state, {1}, grid128.pitch_y_m,
                                blur_sigma_m=5e-6)
        assert soft.pixels.max() < crisp.pixels.max()
        noisy_a = absorption_image(state, {1}, grid128.pitch_y_m,
                                   noise_rms=0.01, seed=7)
        noisy_b = absorption_image(state, {1}, grid128.pitch_y_m,
                                   noise_rms=0.01, seed=7)
        assert np.array_equal(noisy_a.pixels, noisy_b.pixels)
        assert not np.array_equal(noisy_a.pixels, crisp.pixels)

    def test_image_plane_validation(self):
        with pytest.raises(SimulationError):
            ImagePlane(np.full((4, 4), -1.0), 1e-6)
        with pytest.raises(SimulationError):
            ImagePlane(np.full((4, 4), np.nan), 1e-6)
        with pytest.raises(SimulationError):
            ImagePlane(np.ones((4, 4)), 0.0)


def ring_samples(image, radius_m, n=720):
    y, z = image.axes_m()
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    vals = bilinear_sample(image.pixels, y, z,
                           radius_m * np.cos(phi), radius_m * np.sin(phi))
    return phi, vals


class TestAnalyticPattern:
    W_M = 30e-6

    def ring_amp(self, r):
        return (r / self.W_M) * np.exp(-(r / self.W_M) ** 2)

    def flat_amp(self, r):
        return np.exp(-(r / self.W_M) ** 2)

    def test_counter_rotating_zeros_on_vertical_axis(self, grid128):
        image = analytic_pattern("counter_rotating", self.ring_amp, grid128)
        assert image.pixels.max() == pytest.approx(1.0)
        col = image.pixels[:, grid128.n_y // 2]
        assert col.max() < 1e-25

    def test_rot_vs_nonrot_hole_opposite_the_phase(self, grid128):
        # The two profiles are equal at r = w, so the modulus has an exact
        # zero on that ring at phi = pi - theta.
        theta = 0.8
        image = analytic_pattern("rot_vs_nonrot",
                                 (self.flat_amp, self.ring_amp), grid128,
                                 theta=theta)
        phi, vals = ring_samples(image, self.W_M)
        gap = np.angle(np.exp(1j * (phi[np.argmin(vals)] - (math.pi - theta))))
        assert abs(gap) < 0.05
        assert vals.min() < 5e-3 * vals.max()

    def test_doubly_vs_nonrot_has_two_opposite_holes(self, grid128):
        image = analytic_pattern("doubly_vs_nonrot",
                                 (self.flat_amp, self.ring_amp), grid128)
        # On the equal-amplitude ring, 2 phi = pi kills the intensity at
        # both phi = pi/2 and phi = -pi/2; phi = 0 and pi stay bright.
        phi, vals = ring_samples(image, self.W_M)
        quarter = len(phi) // 4
        assert vals[quarter] < 5e-3 * vals.max()
        assert vals[3 * quarter] < 5e-3 * vals.max()
        assert vals[0] > 0.5 * vals.max()
        assert vals[2 * quarter] > 0.5 * vals.max()

    def test_sampled_profile_matches_callable(self, grid128):
        r = np.linspace(0.0, 2e-4, 4000)
        by_table = analytic_pattern("counter_rotating",
                                    (r, self.ring_amp(r)), grid128)
        by_call = analytic_pattern("counter_rotating", self.ring_amp, grid128)
        assert np.allclose(by_table.pixels, by_call.pixels, atol=1e-5)

    def test_bad_inputs_rejected(self, grid128):
        with pytest.raises(SimulationError, match="unknown pattern"):
            analytic_pattern("spiral", self.ring_amp, grid128)
        with pytest.raises(SimulationError, match="two radial profiles"):
            analytic_pattern("rot_vs_nonrot", self.ring_amp, grid128)

    @pytest.mark.parametrize("kind", imaging.PATTERN_KINDS)
    @pytest.mark.parametrize("theta", [0.0, 0.8, 2.5])
    def test_terms_match_the_modulus_form(self, grid128, kind, theta):
        # the superposition itself, |first path + second path|^2
        zz, yy = np.meshgrid(grid128.z_m, grid128.y_m, indexing="ij")
        rho, phi = np.hypot(yy, zz), np.arctan2(zz, yy)
        ring, flat = self.ring_amp(rho), self.flat_amp(rho)
        if kind == "counter_rotating":
            profiles = self.ring_amp
            field = (ring * np.exp(1j * (phi + theta))
                     + ring * np.exp(-1j * phi))
        else:
            profiles = (self.flat_amp, self.ring_amp)
            winding = 1 if kind == "rot_vs_nonrot" else 2
            field = flat + ring * np.exp(1j * (winding * phi + theta))
        modulus = np.abs(field) ** 2
        image = analytic_pattern(kind, profiles, grid128, theta=theta)
        assert image.pixels.min() >= 0.0
        assert np.abs(image.pixels - modulus / modulus.max()).max() <= 1e-15

    def test_radial_profile_of_two_lobe_pattern(self, grid128):
        image = analytic_pattern("counter_rotating", self.ring_amp, grid128)
        radii, mean = radial_profile(image)
        # Azimuthal mean of 4 f^2 cos^2 = 2 f^2, peaked at w/sqrt(2).
        assert radii[np.argmax(mean)] == pytest.approx(
            self.W_M / math.sqrt(2.0), abs=2 * image.pitch_m)
        assert mean[0] < 1e-3 * mean.max()


class TestPgmRoundTrip:
    def test_round_trip_within_quantization(self, grid64, tmp_path):
        rng = np.random.default_rng(3)
        pixels = rng.random((32, 48)) * 7.5 + 0.25
        image = ImagePlane(pixels, 2.5e-6, label="order +1")
        path = str(tmp_path / "cloud.pgm")
        write_pgm(image, path)
        back, meta = read_pgm(path)
        step = (pixels.max() - pixels.min()) / 65535.0
        assert back.shape == image.shape
        assert np.abs(back.pixels - pixels).max() <= 0.5 * step + 1e-12
        assert back.pitch_m == pytest.approx(2.5e-6)
        assert back.label == "order +1"
        assert meta["origin"] == "lower"

    def test_constant_image_survives(self, tmp_path):
        image = ImagePlane(np.full((8, 8), 3.0), 1e-6)
        path = str(tmp_path / "flat.pgm")
        write_pgm(image, path)
        back, _ = read_pgm(path)
        assert np.allclose(back.pixels, 3.0)

    @pytest.mark.parametrize("key", ["pitch_m", "min_value", "max_value"])
    def test_missing_scale_key_rejected(self, tmp_path, key):
        pixels = np.arange(12.0).reshape(3, 4)
        path = str(tmp_path / "small.pgm")
        write_pgm(ImagePlane(pixels, 2.5e-6), path)
        with open(path + ".meta") as fh:
            lines = [l for l in fh if not l.startswith(key + "=")]
        with open(path + ".meta", "w") as fh:
            fh.writelines(lines)
        with pytest.raises(SimulationError, match=key):
            read_pgm(path)

    @pytest.mark.parametrize("key", ["pitch_m", "min_value", "max_value"])
    @pytest.mark.parametrize("value", ["x0.0084", "", "1e-6 m"])
    def test_non_numeric_scale_value_rejected(self, tmp_path, key, value):
        path = str(tmp_path / "small.pgm")
        write_pgm(ImagePlane(np.arange(12.0).reshape(3, 4), 2.5e-6), path)
        with open(path + ".meta") as fh:
            lines = [f"{key}={value}\n" if l.startswith(key + "=") else l
                     for l in fh]
        with open(path + ".meta", "w") as fh:
            fh.writelines(lines)
        with pytest.raises(SimulationError, match=f"small.pgm.*{key}"):
            read_pgm(path)

    # these parse as floats; the sidecar parser, not ImagePlane, names them
    @pytest.mark.parametrize("key", ["pitch_m", "min_value", "max_value"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_scale_value_rejected(self, tmp_path, key, value):
        path = str(tmp_path / "small.pgm")
        write_pgm(ImagePlane(np.arange(12.0).reshape(3, 4), 2.5e-6), path)
        with open(path + ".meta") as fh:
            lines = [f"{key}={value}\n" if l.startswith(key + "=") else l
                     for l in fh]
        with open(path + ".meta", "w") as fh:
            fh.writelines(lines)
        with pytest.raises(SimulationError,
                           match=f"small.pgm.*{key}.*not finite"):
            read_pgm(path)

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "fake.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(SimulationError):
            read_pgm(str(path))

    @pytest.mark.parametrize("header", [b"P5\n\n65535\n",
                                        b"P5\n2 2\n6.5e4\n"],
                             ids=["empty_size", "non_integer_maxval"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(8))
        with pytest.raises(SimulationError, match="bad.pgm"):
            read_pgm(str(path))
