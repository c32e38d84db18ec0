"""Beam modes, coupling maps, optical phase readout."""

import math

import numpy as np
import pytest

from ramanvortex.errors import SimulationError
from ramanvortex.grid import bilinear_sample
from ramanvortex.optics import (BeamSpec, coupling_map, mode_field,
                                phase_readout_pattern, uniform_coupling)

W0 = 30e-6


def lg_beam(phase=0.0, winding=1, waist=W0):
    return BeamSpec("lg", waist, winding=winding, phase=phase)


def g_beam(waist=W0):
    return BeamSpec("gaussian", waist)


def ring_values(field_values, grid, radius_m, n=256):
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    r = radius_m / grid.units.length_m
    return phi, bilinear_sample(field_values, grid.y, grid.z,
                                r * np.cos(phi), r * np.sin(phi))


def loop_winding(field_values, grid, radius_m):
    # Test-local winding count: summed wrapped phase steps around a loop.
    phi, vals = ring_values(field_values, grid, radius_m)
    phases = np.angle(vals)
    steps = np.angle(np.exp(1j * np.diff(np.append(phases, phases[0]))))
    return np.sum(steps) / (2.0 * math.pi)


class TestModeField:
    def test_vortex_amplitude_vanishes_on_axis(self, grid128):
        u = mode_field(lg_beam(), grid128).values
        center = abs(u[grid128.n_z // 2, grid128.n_y // 2])
        assert center < 1e-12

    def test_vortex_ring_radius_is_waist_over_sqrt2(self, grid128):
        # d/drho [rho e^{-rho^2/w^2}] = 0 at rho = w/sqrt(2); the quoted
        # bright-ring diameter is then sqrt(2) w.
        u = np.abs(mode_field(lg_beam(), grid128).values)
        iz, iy = np.unravel_index(np.argmax(u), u.shape)
        rho_m = math.hypot(grid128.y_m[iy], grid128.z_m[iz])
        assert rho_m == pytest.approx(W0 / math.sqrt(2.0),
                                      abs=grid128.pitch_y_m)

    @pytest.mark.parametrize("l", [-2, -1, 1, 2])
    def test_phase_winding_equals_index(self, grid128, l):
        u = mode_field(lg_beam(winding=l), grid128).values
        for frac in (0.3, 0.7, 1.0, 1.5):
            assert loop_winding(u, grid128, frac * W0) == pytest.approx(l)

    def test_gaussian_peak_on_axis_unit_magnitude(self, grid128):
        u = mode_field(g_beam(), grid128).values
        assert np.abs(u).max() == pytest.approx(1.0, rel=1e-14)
        assert abs(u[grid128.n_z // 2, grid128.n_y // 2]) == pytest.approx(1.0)

    def test_beam_phase_is_a_global_factor(self, grid128):
        u0 = mode_field(lg_beam(phase=0.0), grid128).values
        u1 = mode_field(lg_beam(phase=0.7), grid128).values
        assert np.allclose(u1, u0 * np.exp(0.7j), atol=1e-14)

    def test_invalid_beams_rejected(self, grid128):
        with pytest.raises(SimulationError):
            BeamSpec("bessel", W0)
        with pytest.raises(SimulationError):
            BeamSpec("lg", -W0)
        with pytest.raises(SimulationError):
            BeamSpec("gaussian", W0, winding=1)
        with pytest.raises(SimulationError):
            BeamSpec("lg", W0, winding=3)
        # vortex ring at w/sqrt(2) = 85 um exceeds the 80 um half-box
        with pytest.raises(SimulationError):
            mode_field(BeamSpec("lg", 120e-6, winding=1), grid128)

    def test_wide_illumination_beams_accepted(self, grid128):
        # a Gaussian wider than the box is just near-uniform illumination
        wide = mode_field(BeamSpec("gaussian", 200e-6), grid128).values
        assert np.abs(wide).min() > 0.5
        ring = mode_field(BeamSpec("lg", 85e-6, winding=1), grid128).values
        assert np.abs(ring).max() == pytest.approx(1.0, rel=1e-12)


class TestCouplingMap:
    def test_peak_modulus_exactly_peak_rate(self, grid128):
        cmap = coupling_map(lg_beam(), g_beam(), 2.0e4, 0.0, grid128)
        assert np.abs(cmap.omega.values).max() == pytest.approx(
            2.0e4, rel=1e-12)
        assert loop_winding(cmap.omega.values, grid128, W0) == pytest.approx(1)

    def test_gaussian_pair_is_real_positive(self, grid128):
        cmap = coupling_map(g_beam(), g_beam(175e-6 / 3), 1.0e4, 0.0, grid128)
        vals = cmap.omega.values
        assert loop_winding(vals, grid128, W0) == pytest.approx(0)
        assert np.all(vals.real > 0.0)
        assert np.abs(vals.imag).max() < 1e-12 * np.abs(vals).max()

    def test_rel_phase_rotates_uniformly(self, grid128):
        base = coupling_map(lg_beam(), g_beam(), 1.0e4, 0.0, grid128)
        turned = coupling_map(lg_beam(), g_beam(), 1.0e4, 1.1, grid128)
        assert np.allclose(turned.omega.values,
                           base.omega.values * np.exp(1.1j), atol=1e-9)
        assert np.allclose(np.abs(turned.omega.values),
                           np.abs(base.omega.values), atol=1e-12)

    @pytest.mark.parametrize("l_a, l_b", [(2, 0), (1, -1), (-1, 1)])
    def test_coupling_phase_winds_by_the_winding_difference(self, grid128,
                                                            l_a, l_b):
        beam_b = g_beam() if l_b == 0 else lg_beam(winding=l_b)
        cmap = coupling_map(lg_beam(winding=l_a), beam_b, 1.0e4, 0.0, grid128)
        assert loop_winding(cmap.omega.values, grid128, W0) == pytest.approx(
            l_a - l_b)

    def test_excessive_winding_transfer_rejected(self, grid128):
        with pytest.raises(SimulationError):
            coupling_map(lg_beam(winding=2), lg_beam(winding=-1),
                         1.0e4, 0.0, grid128)

    def test_uniform_coupling_is_flat(self, grid64):
        cmap = uniform_coupling(5.0e3, grid64)
        assert np.all(cmap.omega.values == 5.0e3)
        assert loop_winding(cmap.omega.values, grid64, W0) == 0.0

    @pytest.mark.parametrize("rate", [0.0, -1.0e4])
    def test_rate_not_above_zero_rejected(self, grid64, rate):
        with pytest.raises(SimulationError, match="peak Rabi rate"):
            coupling_map(lg_beam(), g_beam(), rate, 0.0, grid64)
        with pytest.raises(SimulationError, match="peak Rabi rate"):
            uniform_coupling(rate, grid64)


class TestPhaseReadout:
    def test_zero_phase_lobe_sits_at_zero(self, grid128):
        _, angle = phase_readout_pattern(lg_beam(), g_beam(), 0.0, grid128)
        assert abs(angle) < 1e-6

    def test_quarter_turn_phase_moves_lobe_to_minus_quarter(self, grid128):
        _, angle = phase_readout_pattern(lg_beam(), g_beam(), math.pi / 2,
                                         grid128)
        assert angle == pytest.approx(-math.pi / 2, abs=1e-6)

    def test_image_is_unit_peak(self, grid128):
        image, _ = phase_readout_pattern(lg_beam(), g_beam(), 1.0, grid128)
        assert image.pixels.max() == pytest.approx(1.0)
        assert image.pitch_m == pytest.approx(grid128.pitch_y_m)

    def test_eighteen_phase_sweep_has_slope_minus_one(self, grid128):
        # Angular pixel at the extraction ring bounds the tolerance.
        pixel = grid128.pitch_y_m / (W0 / math.sqrt(2.0))
        thetas = np.linspace(0.0, 2.0 * math.pi, 18, endpoint=False)
        for theta in thetas:
            _, angle = phase_readout_pattern(lg_beam(), g_beam(), theta,
                                             grid128)
            residual = np.angle(np.exp(1j * (angle + theta)))
            assert abs(residual) < pixel
