"""Winding, angular momentum and hole-angle extraction checks.

Pure vortex modes give exact integer windings and integer <L_z>, mixtures
give the weighted average, and analytic interference patterns pin the
hole-angle conventions (hole at pi - theta, equivariant under rotation).
"""

import math

import numpy as np
import pytest

from ramanvortex.diagnostics import (StudyResult, VortexReport,
                                     fit_circular_slope, hole_angle,
                                     oam_expectation, phase_correlation_study,
                                     vortex_report)
from ramanvortex.errors import (AmbiguousHoleError, ContrastError,
                                DensityFloorError, SimulationError)
from ramanvortex.grid import TransverseField
from ramanvortex.imaging import ImagePlane, analytic_pattern
from ramanvortex.optics import BeamSpec, mode_field
from ramanvortex.scenarios import run_scenario

W0 = 30e-6


def vortex_field(grid, l, waist_m=W0):
    return mode_field(BeamSpec("lg", waist_m, winding=l), grid)


def mixed_field(grid, amp_flat, amp_vortex, l=1):
    flat = mode_field(BeamSpec("gaussian", W0), grid).values
    vortex = vortex_field(grid, l).values
    # normalize each part before weighting so the weights are populations
    flat = flat / math.sqrt(float(np.sum(np.abs(flat) ** 2)))
    vortex = vortex / math.sqrt(float(np.sum(np.abs(vortex) ** 2)))
    return TransverseField(grid, amp_flat * flat + amp_vortex * vortex)


def ring_pattern(grid, theta, kind="rot_vs_nonrot"):
    flat = lambda r: np.exp(-((r / W0) ** 2))
    ring = lambda r: (r / W0) * np.exp(-((r / W0) ** 2))
    profiles = ring if kind == "counter_rotating" else (flat, ring)
    return analytic_pattern(kind, profiles, grid, theta=theta)


class TestWindingNumber:
    @pytest.mark.parametrize("l", [-2, -1, 1, 2])
    def test_pure_vortex_windings(self, grid128, l):
        fld = vortex_field(grid128, l)
        for radius in (10e-6, 21e-6, 35e-6):
            assert vortex_report(fld, radius).winding == l

    def test_gaussian_has_no_winding(self, grid128):
        fld = mode_field(BeamSpec("gaussian", W0), grid128)
        assert vortex_report(fld, 15e-6).winding == 0

    def test_dominant_vortex_wins_in_a_mixture(self, grid128):
        fld = mixed_field(grid128, math.sqrt(0.2), math.sqrt(0.8))
        assert vortex_report(fld, 21e-6).winding == 1

    def test_core_samples_rejected(self, grid128):
        fld = vortex_field(grid128, 1)
        with pytest.raises(DensityFloorError):
            vortex_report(fld, 1e-9)

    def test_sample_floor_enforced(self, grid128):
        fld = vortex_field(grid128, 1)
        with pytest.raises(SimulationError):
            vortex_report(fld, -1e-6)

    def test_report_fields(self, grid128):
        fld = vortex_field(grid128, 1)
        report = vortex_report(fld, 15e-6)
        assert isinstance(report, VortexReport)
        assert report.winding == 1
        assert report.l_z_expect == pytest.approx(1.0, abs=1e-3)
        pitch = grid128.pitch_y_m
        assert abs(report.core_location[0]) <= pitch
        assert abs(report.core_location[1]) <= pitch
        assert report.confidence < 0.05

    def test_report_flags_offset_core(self, grid128):
        beam = BeamSpec("lg", W0, winding=1, center_m=(6e-6, -4e-6))
        report = vortex_report(mode_field(beam, grid128), 20e-6)
        assert report.core_location[0] == pytest.approx(6e-6, abs=1.5e-6)
        assert report.core_location[1] == pytest.approx(-4e-6, abs=1.5e-6)


class TestOamExpectation:
    @pytest.mark.parametrize("l", [1, 2])
    def test_pure_charge(self, grid128, l):
        assert oam_expectation(vortex_field(grid128, l)) == pytest.approx(
            float(l), abs=1e-3)

    def test_opposite_charges_cancel(self, grid128):
        u_plus = vortex_field(grid128, 1).values
        u_minus = vortex_field(grid128, -1).values
        fld = TransverseField(grid128, (u_plus + u_minus) / math.sqrt(2.0))
        assert oam_expectation(fld) == pytest.approx(0.0, abs=1e-9)

    def test_population_weighted_mixture(self, grid128):
        fld = mixed_field(grid128, math.sqrt(0.8), math.sqrt(0.2))
        assert oam_expectation(fld) == pytest.approx(0.2, abs=1e-3)

    def test_center_follows_displaced_vortex(self, grid128):
        beam = BeamSpec("lg", W0, winding=1, center_m=(8e-6, 3e-6))
        fld = mode_field(beam, grid128)
        assert oam_expectation(fld, center_m=(8e-6, 3e-6)) == pytest.approx(
            1.0, abs=1e-3)

    def test_imag_residue_stays_at_rounding_even_for_noise(self, grid64, rng):
        # L_z is exactly Hermitian on the grid, so even garbage input gives
        # a real expectation; the residue guard only catches corruption
        noise = rng.standard_normal(grid64.shape) \
            + 1j * rng.standard_normal(grid64.shape)
        value = oam_expectation(TransverseField(grid64, noise))
        assert np.isfinite(value)

    def test_empty_field_rejected(self, grid64):
        zeros = np.zeros(grid64.shape, dtype=complex)
        with pytest.raises(SimulationError):
            oam_expectation(TransverseField(grid64, zeros))


class TestHoleAngle:
    @pytest.mark.parametrize("theta,expected", [
        (0.0, math.pi),
        (math.pi / 2.0, math.pi / 2.0),
        (math.pi, 0.0),
        (2.3, math.pi - 2.3),
    ])
    def test_hole_sits_opposite_the_imprinted_phase(self, grid128, theta,
                                                    expected):
        image = ring_pattern(grid128, theta)
        angle = hole_angle(image, (0.7 * W0, 1.3 * W0))
        wrapped = (angle - expected + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(wrapped) < math.radians(2.0)

    @pytest.mark.parametrize("alpha", [math.pi / 6.0, math.pi / 2.0])
    def test_equivariance_under_rotation(self, grid128, alpha):
        base = hole_angle(ring_pattern(grid128, 0.9), (0.7 * W0, 1.3 * W0))
        moved = hole_angle(ring_pattern(grid128, 0.9 + alpha),
                           (0.7 * W0, 1.3 * W0))
        wrapped = (moved - base + alpha + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(wrapped) < math.radians(1.0)

    def test_counter_rotating_pattern_is_ambiguous(self, grid128):
        image = ring_pattern(grid128, 0.5, kind="counter_rotating")
        with pytest.raises(AmbiguousHoleError):
            hole_angle(image, (0.7 * W0, 1.3 * W0))

    def test_double_charge_pattern_is_ambiguous(self, grid128):
        ring = lambda r: (r / W0) ** 2 * np.exp(-((r / W0) ** 2))
        flat = lambda r: np.exp(-((r / W0) ** 2))
        image = analytic_pattern("doubly_vs_nonrot", (flat, ring), grid128,
                                 theta=0.8)
        with pytest.raises(AmbiguousHoleError):
            hole_angle(image, (0.7 * W0, 1.3 * W0))

    def test_featureless_image_has_no_hole(self, grid64):
        image = ImagePlane(np.ones((64, 64)), 2.5e-6)
        with pytest.raises(ContrastError):
            hole_angle(image, (20e-6, 60e-6))

    def test_annulus_validation(self, grid64):
        image = ring_pattern(grid64, 0.0)
        with pytest.raises(SimulationError):
            hole_angle(image, (30e-6, 10e-6))
        with pytest.raises(SimulationError):
            hole_angle(image, (300e-6, 400e-6))


class TestSlopeFit:
    def test_recovers_slope_and_intercept(self):
        phases = np.linspace(0.0, 2.0 * math.pi, 18, endpoint=False)
        angles = (math.pi - phases + math.pi) % (2.0 * math.pi) - math.pi
        slope, intercept, residuals = fit_circular_slope(phases, angles)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert (intercept - math.pi) % (2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-9)
        assert np.max(np.abs(residuals)) < 1e-12

    def test_wrap_points_do_not_split_the_fit(self):
        phases = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        angles = (0.02 - phases + math.pi) % (2.0 * math.pi) - math.pi
        slope, _, residuals = fit_circular_slope(phases, angles)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert np.max(np.abs(residuals)) < 1e-12

    def test_positive_branch(self):
        phases = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
        angles = (2.0 * phases + 0.3 + math.pi) % (2.0 * math.pi) - math.pi
        slope, _, _ = fit_circular_slope(phases, angles)
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_three_phase_alias_resolves_to_the_smaller_slope(self):
        # with 3 equally spaced phases, slope -1 and +2 fit equally well
        phases = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
        for offset in np.linspace(0.0, 2.0 * math.pi, 600, endpoint=False):
            angles = (2.0 * math.pi - phases + offset) % (2.0 * math.pi) \
                - math.pi
            slope, _, residuals = fit_circular_slope(phases, angles)
            assert slope == pytest.approx(-1.0, abs=1e-9), offset
            assert np.max(np.abs(residuals)) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(SimulationError):
            fit_circular_slope([0.0], [0.0])

    def test_equal_phases_rejected(self):
        # one distinct phase fixes no slope, however many trials share it
        with pytest.raises(SimulationError, match="distinct"):
            fit_circular_slope([1.0, 1.0, 1.0], [0.2, 0.3, 0.4])


class TestPhaseStudy:
    def test_fit_of_analytic_holes(self, grid128):
        phases = [2.0 * math.pi * k / 6.0 for k in range(6)]
        images = [ring_pattern(grid128, phase) for phase in phases]
        study = phase_correlation_study(phases, images, phases,
                                        (0.7 * W0, 1.3 * W0))
        assert isinstance(study, StudyResult)
        assert study.slope == pytest.approx(-1.0, abs=0.01)
        assert np.max(np.abs(study.residuals_rad)) < math.radians(2.0)
        assert [row["trial"] for row in study.rows] == list(range(6))
        assert [row["readout_angle_rad"] for row in study.rows] == phases

    def test_slope_minus_one_with_small_residuals(self, tmp_path):
        phases = [2.0 * math.pi * k / 6.0 for k in range(6)]
        result = run_scenario({
            "schema_version": 1, "scenario": "phase_coherence",
            "output_dir": str(tmp_path / "study"),
            "grid": {"points_y": 128, "points_z": 128},
            "beams": {"lg": {"kind": "lg", "waist_m": 85e-6, "winding": 1},
                      "a": {"kind": "gaussian", "waist_m": 175e-6},
                      "b": {"kind": "gaussian", "waist_m": 200e-6}},
            "pulses": [
                {"absorb": "lg", "emit": "a", "rabi_rate_rad_s": 1.2e5,
                 "detuning_recoils": 4.0, "duration_s": 30e-6},
                {"absorb": "b", "emit": "a", "rabi_rate_rad_s": 3.5e4,
                 "detuning_recoils": 4.0, "duration_s": 30e-6},
            ],
            "study": {"n_trials": 6, "phases_rad": phases,
                      "annulus_inner_m": 5e-6, "annulus_outer_m": 12e-6},
            "imaging": {"time_of_flight_s": 0.0},
        })
        assert result.summary["slope"] == pytest.approx(-1.0, abs=0.05)
        assert result.summary["max_residual_rad"] < math.radians(5.0)
        table = (tmp_path / "study" / "study_table.tsv").read_text()
        header, *lines = table.strip().split("\n")
        assert header.split("\t") == ["trial", "beam_phase_rad",
                                      "readout_angle_rad", "hole_angle_rad"]
        assert len(lines) == 6
        for line, phase in zip(lines, phases):
            readout = float(line.split("\t")[2])
            expected = (-phase + math.pi) % (2.0 * math.pi) - math.pi
            wrapped = (readout - expected
                       + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(wrapped) < 0.1
