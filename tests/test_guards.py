"""Guards trip on NaN and inf, not only on values out of range."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from ramanvortex import dynamics, scenarios
from ramanvortex.condensate import (TrapSpec, g2d_from_tf_radius,
                                    gaussian_profile, thomas_fermi_profile)
from ramanvortex.config import loads
from ramanvortex.diagnostics import oam_expectation, vortex_report
from ramanvortex.dynamics import (PulseSpec, calibrate_pi_pulse,
                                  detuning_ladder)
from ramanvortex.errors import ConfigError, SimulationError
from ramanvortex.grid import (Grid2D, LadderState, TransverseField,
                              bilinear_sample)
from ramanvortex.imaging import (ImagePlane, absorption_image, read_pgm,
                                 time_of_flight)
from ramanvortex.optics import (BeamSpec, CouplingMap, coupling_map,
                                phase_readout_pattern, uniform_coupling)
from ramanvortex.units import (SODIUM_MASS_KG, SODIUM_WAVELENGTH_M,
                               PhysicalParams)

import guard_reach

# a guard must trip before any arithmetic on the bad value, so NaN and inf
# never reach numpy and raise its RuntimeWarnings
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# each builds one object from a single bad value x
CONSTRUCTORS = {
    "trap_nu_y": lambda x, units: TrapSpec(x, 40.0),
    "trap_nu_z": lambda x, units: TrapSpec(40.0, x),
    "beam_waist": lambda x, units: BeamSpec("gaussian", x),
    "atom_mass": lambda x, units: PhysicalParams(x, SODIUM_WAVELENGTH_M),
    "wavelength": lambda x, units: PhysicalParams(SODIUM_MASS_KG, x),
    "grid_extent_y": lambda x, units: Grid2D(32, 32, x, 160e-6, units),
    "grid_extent_z": lambda x, units: Grid2D(32, 32, 160e-6, x, units),
    "coupling_peak": lambda x, units: coupling_map(
        BeamSpec("lg", 50e-6, winding=1), BeamSpec("gaussian", 80e-6), x,
        0.0, Grid2D(32, 32, 160e-6, 160e-6, units)),
    "uniform_peak": lambda x, units: uniform_coupling(
        x, Grid2D(32, 32, 160e-6, 160e-6, units)),
    "coupling_values": lambda x, units: CouplingMap(
        TransverseField(Grid2D(32, 32, 160e-6, 160e-6, units),
                        np.full((32, 32), x, dtype=complex))),
    "image_pitch": lambda x, units: ImagePlane(np.ones((4, 4)), x),
    "tf_radius": lambda x, units: g2d_from_tf_radius(TrapSpec(40.0, 40.0),
                                                     x, units),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_non_finite_input_rejected(name, bad, units):
    with pytest.raises((ValueError, SimulationError)):
        CONSTRUCTORS[name](bad, units)


def _field(units, value=1.0):
    grid = Grid2D(32, 32, 160e-6, 160e-6, units)
    return TransverseField(grid, np.full(grid.shape, value, dtype=complex))


# each calls one function on a single bad value x; none may end in the
# bare ValueError of converting NaN to an index
CALLS = {
    "normalize_field": lambda x, units: _field(units, x).normalized(),
    "bilinear_point": lambda x, units: bilinear_sample(
        np.ones((4, 4)), np.arange(4.0), np.arange(4.0), [x], [1.0]),
    "vortex_loop_radius": lambda x, units: vortex_report(_field(units), x),
    "image_pitch_m": lambda x, units: absorption_image(
        LadderState.from_single_order(_field(units), 1), (0,), x),
    "image_blur_sigma_m": lambda x, units: absorption_image(
        LadderState.from_single_order(_field(units), 1), (0,), 5e-6,
        blur_sigma_m=x),
    "image_noise_rms": lambda x, units: absorption_image(
        LadderState.from_single_order(_field(units), 1), (0,), 5e-6,
        noise_rms=x),
    "tof_pad_factor": lambda x, units: time_of_flight(
        LadderState.from_single_order(_field(units), 1), 1e-3, 0.0, 0.0,
        pad_factor=x),
    "coupling_rel_phase": lambda x, units: coupling_map(
        BeamSpec("lg", 50e-6, winding=1), BeamSpec("gaussian", 80e-6), 1e4,
        x, Grid2D(32, 32, 160e-6, 160e-6, units)),
    "tf_g2d": lambda x, units: thomas_fermi_profile(
        TrapSpec(40.0, 40.0), x, Grid2D(32, 32, 160e-6, 160e-6, units)),
    "beam_phase": lambda x, units: coupling_map(
        BeamSpec("lg", 50e-6, winding=1, phase=x),
        BeamSpec("gaussian", 80e-6), 1e4, 0.0,
        Grid2D(32, 32, 160e-6, 160e-6, units)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_finite_argument_raises_simulation_error(name, bad, units):
    with pytest.raises(SimulationError):
        CALLS[name](bad, units)


@pytest.mark.parametrize("bad", [0.0, -1e-50], ids=["zero", "negative"])
def test_thomas_fermi_needs_positive_coupling(bad, units):
    with pytest.raises(SimulationError, match="finite g2d > 0"):
        CALLS["tf_g2d"](bad, units)


@pytest.mark.parametrize("name", ["image_blur_sigma_m", "image_noise_rms"])
def test_negative_image_smearing_raises_simulation_error(name, units):
    with pytest.raises(SimulationError, match="not finite and >= 0"):
        CALLS[name](-1e-6, units)


# an infinite factor once doubled the padded size forever
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_padding_factor_raises_value_error(bad, units):
    grid = Grid2D(32, 32, 160e-6, 160e-6, units)
    with pytest.raises(ValueError, match="padding factor"):
        grid.padded(bad)


# ---------------------------------------------------------------------------
# Guards that no other test reaches (python -m pytest --guard-reach lists
# them); each is tripped here by every kind of bad value it can see.
# ---------------------------------------------------------------------------

def _grid32(units, extent_z_m=160e-6):
    return Grid2D(32, 32, 160e-6, extent_z_m, units)


@pytest.mark.parametrize("trap", [TrapSpec(0.0, 40.0), TrapSpec(40.0, 0.0)],
                         ids=["no_y", "no_z"])
@pytest.mark.parametrize("prepare", [
    lambda trap, units: g2d_from_tf_radius(trap, 30e-6, units),
    lambda trap, units: thomas_fermi_profile(trap, 1e-45, _grid32(units)),
    lambda trap, units: gaussian_profile(trap, _grid32(units)),
], ids=["tf_radius", "thomas_fermi", "gaussian"])
def test_ground_states_need_a_confining_trap(trap, prepare, units):
    # TrapSpec itself rejects NaN and inf frequencies, so zero is the only
    # bad value these guards see
    with pytest.raises(SimulationError, match="confining trap"):
        prepare(trap, units)


def test_thomas_fermi_cloud_that_vanishes_on_the_grid(units):
    # omega_y omega_z underflows, so mu = 0 and no grid point holds atoms
    with pytest.raises(SimulationError, match="does not resolve"):
        thomas_fermi_profile(TrapSpec(1e-200, 1e-200), 1e-45, _grid32(units))


@pytest.mark.parametrize("text", ["[]", "[1, 2]", "3", "null", '"a"', "NaN",
                                  "Infinity"])
def test_config_root_must_be_an_object(text):
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        loads(text)


@pytest.mark.parametrize("bad", [0.0, -1e-6, math.nan, math.inf])
def test_calibration_needs_a_finite_positive_duration(bad, units):
    grid = _grid32(units)
    trap = TrapSpec(40.0, 40.0)
    ground = gaussian_profile(trap, grid)
    with pytest.raises(SimulationError, match="pulse duration"):
        calibrate_pi_pulse(ground, uniform_coupling(1e4, grid), 4.0, bad,
                           trap, 0.0)


@pytest.mark.parametrize("bad", [0.0, 0.5, -2.0, math.nan, math.inf])
def test_ladder_state_needs_a_finite_n_max_of_one_or_more(bad, units):
    with pytest.raises(ValueError, match="n_max must be finite and >= 1"):
        LadderState(_grid32(units), bad)
    with pytest.raises(SimulationError, match="n_max must be finite"):
        detuning_ladder(4.0, bad)


@pytest.mark.parametrize("bad", [2.5, 1.5, 3.0 + 1e-12])
def test_ladder_state_needs_an_integer_n_max(bad, units):
    # int() would truncate 2.5 to an n_max 2 ladder, and the detuning
    # ladder would hold 6 energies at half-integer orders
    with pytest.raises(ValueError, match="n_max must be an integer"):
        LadderState(_grid32(units), bad)
    with pytest.raises(SimulationError, match="n_max must be an integer"):
        detuning_ladder(4.0, bad)


@pytest.mark.parametrize("n_max", [np.int64(2), np.int32(2), 2.0])
def test_ladder_state_takes_a_numpy_or_whole_float_n_max(n_max, units):
    assert LadderState(_grid32(units), n_max).values.shape[0] == 5
    assert np.array_equal(detuning_ladder(4.0, n_max),
                          detuning_ladder(4.0, 2))


def test_ladder_state_values_must_match_the_grid(units):
    with pytest.raises(SimulationError, match="does not match"):
        LadderState(_grid32(units), 1, np.zeros((3, 16, 16), dtype=complex))


def test_oam_expectation_rejects_a_field_too_faint_to_resolve(units, rng):
    # at 1e-160 the squared amplitudes are subnormal and keep a few bits,
    # so <L_z> is no longer real to rounding (at 1e-150 it still is)
    grid = _grid32(units)
    noise = (rng.standard_normal(grid.shape)
             + 1j * rng.standard_normal(grid.shape))
    assert np.isfinite(oam_expectation(TransverseField(grid, 1e-150 * noise)))
    with pytest.raises(SimulationError, match="imaginary residue"):
        oam_expectation(TransverseField(grid, 1e-160 * noise))


@pytest.mark.parametrize("shape", [(16,), (2, 4, 4)])
def test_image_pixels_must_be_a_plane(shape):
    with pytest.raises(SimulationError, match="must be 2D"):
        ImagePlane(np.ones(shape), 1e-6)


def test_readout_pattern_needs_square_pixels(units):
    with pytest.raises(SimulationError, match="square grid pixels"):
        phase_readout_pattern(BeamSpec("lg", 50e-6, winding=1),
                              BeamSpec("gaussian", 80e-6), 0.0,
                              _grid32(units, extent_z_m=120e-6))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_readout_pattern_needs_a_finite_phase(bad, units):
    with pytest.raises(SimulationError, match="relative phase"):
        phase_readout_pattern(BeamSpec("lg", 50e-6, winding=1),
                              BeamSpec("gaussian", 80e-6), bad,
                              _grid32(units))


def test_vortex_mode_narrower_than_a_pixel_is_rejected(units):
    # its ring sits between the origin and the nearest grid point
    with pytest.raises(SimulationError, match="vanishes on every grid point"):
        phase_readout_pattern(BeamSpec("lg", 1e-9, winding=1),
                              BeamSpec("gaussian", 80e-6), 0.0,
                              _grid32(units))


def test_coupling_of_beams_that_never_overlap_is_rejected(units):
    # a Gaussian narrower than a pixel lives on the origin, where the
    # vortex mode is zero
    with pytest.raises(SimulationError, match="beam product vanishes"):
        coupling_map(BeamSpec("lg", 50e-6, winding=1),
                     BeamSpec("gaussian", 1e-9), 1e4, 0.0, _grid32(units))


@pytest.mark.parametrize("header, pixels, message", [
    (b"P5\n4 4\n255\n", 32, "expected 16-bit maxval, got 255"),
    (b"P5\n4 4\n65535\n", 30, "truncated pixel data"),
    (b"P5\n4 4\n65535\n", 31, "truncated pixel data"),
], ids=["maxval", "truncated", "truncated_odd"])
def test_malformed_pgm_is_rejected(tmp_path, header, pixels, message):
    path = tmp_path / "image.pgm"
    path.write_bytes(header + bytes(pixels))
    with pytest.raises(SimulationError, match=message):
        read_pgm(str(path))


def test_pattern_support_of_an_empty_image():
    with pytest.raises(SimulationError, match="no pattern support"):
        scenarios._support_radius_m(ImagePlane(np.zeros((16, 16)), 1e-6))


def test_pattern_match_needs_the_grid_pitch_raster(tmp_path, units):
    grid = _grid32(units)
    with pytest.raises(SimulationError, match="grid-pitch"):
        scenarios._match_pattern(scenarios._Bundle(str(tmp_path)), {},
                                 ImagePlane(np.ones((16, 16)), 1e-6), 1,
                                 "counter_rotating", None, grid)


def test_azimuthal_minima_on_an_annulus_thinner_than_a_pixel():
    image = ImagePlane(np.ones((32, 32)), 1e-6)
    with pytest.raises(SimulationError, match="annulus too thin"):
        scenarios._azimuthal_minima(image, (10e-6, 10.01e-6))


def test_guard_reach_records_only_the_raise_that_ran():
    reach = guard_reach.GuardReach()
    reach.pytest_sessionstart(None)
    try:
        with pytest.raises(SimulationError, match="pulse duration"):
            PulseSpec(None, 4.0, -1.0)
    finally:
        reach.pytest_sessionfinish(SimpleNamespace(exitstatus=0), 0)
    (path, line), = reach.reached
    assert path == dynamics.__file__ and (path, line) in reach.sites
    with open(path, encoding="utf-8") as fh:
        assert fh.read().splitlines()[line - 1].strip().startswith("raise")


@pytest.mark.parametrize("all_reached", [False, True])
@pytest.mark.parametrize("exitstatus", [pytest.ExitCode.OK,
                                        pytest.ExitCode.TESTS_FAILED])
def test_guard_reach_fails_a_session_that_left_a_site_unreached(
        all_reached, exitstatus):
    reach = guard_reach.GuardReach()
    if all_reached:
        reach.reached = set(reach.sites)
    session = SimpleNamespace(exitstatus=exitstatus)
    reach.pytest_sessionstart(session)
    reach.pytest_sessionfinish(session, exitstatus)
    assert session.exitstatus == (
        exitstatus if all_reached else pytest.ExitCode.TESTS_FAILED)
