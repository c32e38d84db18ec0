"""Acceptance gate: the ten checks that define done.

One test per criterion, each printing a single labelled PASS/FAIL line
with the measured numbers (visible with -s, or in the captured output of
a failing test; pytest -v already gives one status line per criterion).

Quantities this desk-scale model substitutes rather than reproduces:
absolute atom number (fields are unit-normalized fractions), absolute
beam powers (couplings are calibrated peak two-photon rates, not
predicted from power and single-photon detuning), and exact transfer
efficiencies (asserted only within wide brackets; the cloud here is a
transverse 2D reduction of a 3D experiment).  Criterion 10 pins those
brackets; criterion 5 records where the calibrated-transfer window
lands for this reduction.
"""

import math

import numpy as np
import pytest

from ramanvortex import dynamics
from ramanvortex.condensate import (TrapSpec, g2d_from_tf_radius,
                                    relax_ground_state, thomas_fermi_profile)
from ramanvortex.diagnostics import vortex_report
from ramanvortex.dynamics import (PulseSpec, calibrate_pi_pulse,
                                  detuning_ladder, evolve_free, evolve_pulse,
                                  run_sequence)
from ramanvortex.grid import Grid2D, LadderState, TransverseField
from ramanvortex.optics import BeamSpec, coupling_map, uniform_coupling
from ramanvortex.scenarios import run_scenario
from test_grid import normalized

LG = BeamSpec("lg", 85e-6, winding=1)
GAUSS = BeamSpec("gaussian", 175e-6)

BEAM_TABLE = {
    "lg": {"kind": "lg", "waist_m": 85e-6, "winding": 1},
    "g": {"kind": "gaussian", "waist_m": 175e-6},
    "wide": {"kind": "gaussian", "waist_m": 200e-6},
}


def report(number: int, label: str, ok: bool, detail: str) -> str:
    line = (f"criterion {number:02d} {label}: "
            f"{'PASS' if ok else 'FAIL'} ({detail})")
    print(line)
    return line


def gaussian_packet(grid: Grid2D, sigma_m: float) -> TransverseField:
    sigma = sigma_m / grid.units.length_m
    envelope = np.exp(-(grid.mesh_y**2 + grid.mesh_z**2)
                      / (4.0 * sigma**2)).astype(complex)
    return normalized(TransverseField(grid, envelope))


@pytest.fixture(scope="module")
def trap():
    return TrapSpec(40.0 / math.sqrt(2.0), 40.0)


@pytest.fixture(scope="module")
def g2d(trap, units):
    return g2d_from_tf_radius(trap, 30e-6, units)


@pytest.fixture(scope="module")
def relaxed64(grid64, trap, g2d):
    return relax_ground_state(thomas_fermi_profile(trap, g2d, grid64),
                              trap, g2d)


@pytest.fixture(scope="module")
def relaxed128(grid128, trap, g2d):
    return relax_ground_state(thomas_fermi_profile(trap, g2d, grid128),
                              trap, g2d)


@pytest.fixture(scope="module")
def calibration(relaxed64, grid64, trap, g2d):
    """Calibrated 130 us pi-pulse: (peak rate, achieved transfer).

    The scan runs on the coarse grid; transfer fractions match the fine
    grid to four decimals, so the calibrated rate carries over.
    """
    shape = coupling_map(LG, GAUSS, 1.0e4, 0.0, grid64)
    return calibrate_pi_pulse(relaxed64, shape, 4.0, 130e-6, trap, g2d)


def test_criterion_01_recoil_scale(units):
    """Four recoil frequencies for sodium at 589.0 nm is about 100 kHz."""
    computed = 4.0 * units.recoil_frequency_hz
    ok = abs(computed - 1.0e5) / 1.0e5 < 0.01
    line = report(1, "recoil scale", ok,
                  f"4 nu_r = {computed:.1f} Hz vs 100 kHz within 1%")
    assert ok, line


def test_criterion_02_ladder_zeros():
    """Two-photon resonances sit at exact zeros of the detuning ladder."""
    checks = {
        "D1(4)": detuning_ladder(4.0, 3)[3 + 1],
        "D2(8)": detuning_ladder(8.0, 3)[3 + 2],
        "D2-D1(12)": (detuning_ladder(12.0, 3)[3 + 2]
                      - detuning_ladder(12.0, 3)[3 + 1]),
    }
    sym = detuning_ladder(0.0, 3)
    ok = (all(v == 0.0 for v in checks.values())
          and sym[3 - 1] == sym[3 + 1])
    line = report(2, "ladder zeros", ok,
                  ", ".join(f"{k}={v}" for k, v in checks.items())
                  + f", D-1(0)={sym[3 - 1]} == D+1(0)={sym[3 + 1]}")
    assert ok, line


def test_criterion_03_rabi_oracle(units, grid64, trap):
    """Uniform-drive transfer follows the two-level Rabi formulas."""
    state = LadderState.from_single_order(gaussian_packet(grid64, 20e-6), 3)

    def populations(omega_int, delta, n_segments, t_total_int, dt_int):
        rate = omega_int / units.time_s
        seg_s = units.time_to_si(t_total_int / n_segments)
        pulse = PulseSpec(uniform_coupling(rate, grid64), delta, seg_s,
                          trap_on=False)
        current, out = state, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "MAX_INTERNAL_STEP",
                       units.time_to_internal(units.time_to_si(dt_int)))
            for k in range(n_segments):
                current = evolve_pulse(current, pulse, trap, 0.0)
                out.append((t_total_int * (k + 1) / n_segments,
                            current.population(1)))
        return out

    omega = 0.004
    worst_res = max(
        abs(p1 - math.sin(omega * t / 2.0) ** 2)
        for t, p1 in populations(omega, 4.0, 12,
                                 2.0 * (2.0 * math.pi / omega), 3.0))

    omega = 0.02
    gen = math.sqrt(2.0) * omega
    worst_det = max(
        abs(p1 - 0.5 * math.sin(gen * t / 2.0) ** 2)
        for t, p1 in populations(omega, 4.0 - omega, 8,
                                 2.0 * math.pi / gen, 2.0))

    ok = worst_res < 1e-6 and worst_det < 1e-4
    line = report(3, "Rabi oracle", ok,
                  f"resonant residual {worst_res:.2e} (limit 1e-6), "
                  f"detuned residual {worst_det:.2e} (limit 1e-4)")
    assert ok, line


def test_criterion_04_oam_quantization(relaxed128, grid128, trap, g2d,
                                       calibration):
    """Each photon pair hands over exactly one quantum of circulation."""
    rate, _ = calibration
    loop_m = 12e-6
    first = PulseSpec(coupling_map(LG, GAUSS, rate, 0.0, grid128), 4.0,
                      130e-6)
    state = LadderState.from_single_order(relaxed128.field, 3)
    state = evolve_pulse(state, first, trap, g2d)
    rep1 = vortex_report(state.component(1), loop_m)

    second = PulseSpec(coupling_map(LG, GAUSS, 6.8e4, 0.0, grid128), 12.0,
                       70e-6)
    state = evolve_pulse(state, second, trap, g2d)
    rep2 = vortex_report(state.component(2), loop_m)

    ok = (rep1.winding == 1 and abs(rep1.l_z_expect - 1.0) <= 0.02
          and rep2.winding == 2 and abs(rep2.l_z_expect - 2.0) <= 0.02)
    line = report(4, "quantized transfer", ok,
                  f"winding1={rep1.winding}, Lz1={rep1.l_z_expect:.4f}, "
                  f"winding2={rep2.winding}, Lz2={rep2.l_z_expect:.4f}")
    assert ok, line


def test_criterion_05_transfer_bracket(calibration):
    """Calibrated 130 us transfer lands in [0.40, 0.70], never reaching 1.

    Known red: the faithful 2D reduction (interaction strength pinned by
    the 30/21 um cloud radii, 85/175 um beams) tops out near 0.74 because
    the drive varies little over the cloud.  An independent static
    estimate of max over amplitude of the density-weighted sin^2 transfer
    gives 0.72-0.74 for both plausible column weightings, so the upper
    edge of the bracket is not reachable by this model; this line records
    the miss rather than bending waists or adding loss channels to hide
    it.
    """
    rate, achieved = calibration
    ok = 0.40 <= achieved <= 0.70 and achieved < 1.0
    line = report(5, "transfer bracket", ok,
                  f"achieved {achieved:.4f} at {rate:.3g} rad/s, "
                  f"bracket [0.40, 0.70], strict ceiling 1.0")
    assert ok, line


def test_criterion_06_counter_rotating_pattern(tmp_path):
    """Opposite charges interfere into the two-lobed azimuthal pattern."""
    result = run_scenario({
        "schema_version": 1, "scenario": "counter_rotating",
        "output_dir": str(tmp_path / "cr"),
        "grid": {"points_y": 128, "points_z": 128},
        "beams": dict(BEAM_TABLE),
        "pulses": [
            {"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 7.3e4,
             "detuning_recoils": 4.0, "duration_s": 3.0e-5},
            {"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 6.0e4,
             "detuning_recoils": -4.0, "duration_s": 6.0e-5},
            {"absorb": "wide", "emit": "wide", "rabi_rate_rad_s": 1.4e5,
             "detuning_recoils": 0.0, "duration_s": 1.0e-4},
        ],
    })
    xcorr = result.summary["pattern_xcorr_order_p1"]
    ok = xcorr > 0.9
    line = report(6, "counter-rotating pattern", ok,
                  f"image vs cos^2 template correlation {xcorr:.4f}, "
                  f"limit 0.9")
    assert ok, line


def test_criterion_07_phase_slope(tmp_path):
    """The density hole tracks the imprinting beam phase with slope -1."""
    result = run_scenario({
        "schema_version": 1, "scenario": "phase_coherence",
        "output_dir": str(tmp_path / "pc"),
        "grid": {"points_y": 128, "points_z": 128},
        "condensate": {"profile": "relaxed"},
        "beams": dict(BEAM_TABLE),
        "pulses": [
            {"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 7.3e4,
             "detuning_recoils": 4.0, "duration_s": 3.0e-5},
            {"absorb": "wide", "emit": "g", "rabi_rate_rad_s": 7.0e4,
             "detuning_recoils": 4.0, "duration_s": 1.5e-5},
        ],
        "study": {"n_trials": 18},
        "imaging": {"time_of_flight_s": 0.0},
    })
    slope = result.summary["slope"]
    worst = result.summary["max_residual_rad"]
    ok = abs(slope + 1.0) <= 0.05 and worst < math.radians(5.0)
    line = report(7, "phase-coherence slope", ok,
                  f"slope {slope:.4f} (want -1.00 +/- 0.05), worst "
                  f"residual {math.degrees(worst):.2f} deg (limit 5 deg)")
    assert ok, line


def test_criterion_08_double_charge_pattern(tmp_path):
    """A second resonant step doubles the charge; readout shows two holes."""
    result = run_scenario({
        "schema_version": 1, "scenario": "double_charge",
        "output_dir": str(tmp_path / "dc"),
        "grid": {"points_y": 128, "points_z": 128, "n_max": 4},
        "beams": dict(BEAM_TABLE),
        "pulses": [
            {"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 6.9e4,
             "detuning_recoils": 4.0, "duration_s": 3.0e-5},
            {"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 6.8e4,
             "detuning_recoils": 12.0, "duration_s": 7.0e-5},
            {"absorb": "wide", "emit": "wide", "rabi_rate_rad_s": 1.6e5,
             "detuning_recoils": 8.0, "duration_s": 4.0e-5},
        ],
    })
    sep = result.summary["minima_separation_rad"]
    xcorr = result.summary["pattern_xcorr_order_p2"]
    ok = abs(sep - math.pi) <= 0.2 and xcorr > 0.85
    line = report(8, "double-charge pattern", ok,
                  f"minima separation {sep:.3f} rad (want pi +/- 0.2), "
                  f"correlation {xcorr:.4f} (limit 0.85)")
    assert ok, line


def test_criterion_09_numerical_hygiene(units, grid64, relaxed64, trap, g2d):
    """Norm drift, step-halving convergence, and free dispersion."""
    state = LadderState.from_single_order(relaxed64.field, 3)
    pulse = PulseSpec(coupling_map(LG, GAUSS, 7.3e4, 0.0, grid64), 4.0, 30e-6)
    norm0 = sum(state.population(n) for n in state.orders)
    coarse = evolve_pulse(state, pulse, trap, g2d)
    drift = abs(sum(coarse.population(n) for n in coarse.orders) - norm0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "MAX_INTERNAL_STEP",
                   units.time_to_internal(units.time_to_si(0.015)))
        fine = evolve_pulse(state, pulse, trap, g2d)
    diff = coarse.values - fine.values
    l2 = math.sqrt(float(np.sum(np.abs(diff) ** 2) * grid64.cell_area))

    small = Grid2D(64, 64, 20e-6, 20e-6, units)
    sigma0 = 1.0e-6 / units.length_m
    spread = LadderState.from_single_order(gaussian_packet(small, 1.0e-6), 1)
    t_int = sigma0**2
    spread = evolve_free(spread, units.time_to_si(t_int), None, 0.0)
    dens = np.abs(spread.values[spread.index(0)]) ** 2
    total = dens.sum()
    y_mean = (dens * small.mesh_y).sum() / total
    sigma_got = math.sqrt((dens * (small.mesh_y - y_mean) ** 2).sum() / total)
    sigma_want = sigma0 * math.sqrt(2.0)
    width_err = abs(sigma_got - sigma_want) / sigma_want

    ok = drift <= 1e-9 and l2 <= 1e-6 and width_err < 1e-3
    line = report(9, "numerical hygiene", ok,
                  f"norm drift {drift:.2e} (limit 1e-9), dt-halving L2 "
                  f"{l2:.2e} (limit 1e-6), free-spread width error "
                  f"{width_err:.2e} (limit 1e-3)")
    assert ok, line


def test_criterion_10_substituted_scales(grid64, relaxed64, trap, g2d):
    """Per-pulse efficiencies hold only inside wide, declared brackets.

    Absolute atom number and beam powers have no counterpart here at all:
    populations are fractions of one cloud and couplings are calibrated
    peak rates.  What remains checkable is that the calibrated sequences
    move population consistent with the nominal 20% first transfer, 40%
    of the remainder on the counter-rotating step, and 80% charge
    doubling, within wide brackets.
    """
    state = LadderState.from_single_order(relaxed64.field, 3)
    first = PulseSpec(coupling_map(LG, GAUSS, 7.3e4, 0.0, grid64), 4.0, 30e-6)
    second = PulseSpec(coupling_map(LG, GAUSS, 6.0e4, 0.0, grid64), -4.0,
                       60e-6)
    after, _ = run_sequence(state, (first, second), trap, g2d)
    p1 = after.population(1)
    frac2 = after.population(-1) / (1.0 - p1)

    gen1, _ = run_sequence(
        state, (PulseSpec(coupling_map(LG, GAUSS, 6.9e4, 0.0, grid64), 4.0,
                          30e-6),), trap, g2d)
    p1_before = gen1.population(1)
    doubling = PulseSpec(coupling_map(LG, GAUSS, 6.8e4, 0.0, grid64), 12.0,
                         70e-6)
    gen2, _ = run_sequence(gen1, (doubling,), trap, g2d)
    ratio = gen2.population(2) / p1_before

    ok = (0.10 <= p1 <= 0.35 and 0.20 <= frac2 <= 0.60
          and 0.60 <= ratio <= 0.95)
    line = report(10, "substituted scales", ok,
                  f"first transfer {p1:.3f} in [0.10, 0.35], second "
                  f"{frac2:.3f} of remainder in [0.20, 0.60], doubling "
                  f"ratio {ratio:.3f} in [0.60, 0.95]")
    assert ok, line
