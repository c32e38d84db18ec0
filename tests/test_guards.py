"""Guards trip on NaN and inf, not only on values out of range."""

import math

import numpy as np
import pytest

from ramanvortex.condensate import (TrapSpec, g2d_from_tf_radius,
                                    thomas_fermi_profile)
from ramanvortex.diagnostics import vortex_report
from ramanvortex.errors import SimulationError
from ramanvortex.grid import (Grid2D, LadderState, TransverseField,
                              bilinear_sample)
from ramanvortex.imaging import ImagePlane, absorption_image, time_of_flight
from ramanvortex.optics import (BeamSpec, CouplingMap, coupling_map,
                                uniform_coupling)
from ramanvortex.units import (SODIUM_MASS_KG, SODIUM_WAVELENGTH_M,
                               PhysicalParams)

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
