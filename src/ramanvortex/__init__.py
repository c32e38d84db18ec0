"""Deterministic simulator of two-photon Raman transfer of optical angular
momentum to a trapped condensate, with time-of-flight imaging and vortex
diagnostics."""

__version__ = "0.1.0"

from .units import (PhysicalParams, UnitSystem, make_recoil_units,
                    SODIUM_MASS_KG, SODIUM_WAVELENGTH_M)
from .grid import (Grid2D, TransverseField, LadderState, save_field,
                   load_field)
from .errors import (SimulationError, ConfigError, GuardError,
                     TruncationError, StepSizeError, ConvergenceError,
                     GridOverflowError, DensityFloorError, ContrastError,
                     AmbiguousHoleError, CalibrationError)
from .optics import (MAX_WINDING, BeamSpec, CouplingMap, coupling_map,
                     uniform_coupling, phase_readout_pattern)
from .condensate import (TrapSpec, GroundState, g2d_from_tf_radius,
                         thomas_fermi_profile, gaussian_profile,
                         relax_ground_state, gpe_energy)
from .dynamics import (PulseSpec, detuning_ladder, evolve_pulse, evolve_free,
                       run_sequence, calibrate_pi_pulse)
from .imaging import (ImagePlane, PATTERN_KINDS, time_of_flight,
                      absorption_image, analytic_pattern, radial_profile,
                      write_pgm, read_pgm)
from .diagnostics import (VortexReport, StudyResult, oam_expectation,
                          vortex_report, hole_angle, fit_circular_slope,
                          phase_correlation_study)
from .config import (SCHEMA_VERSION, SCENARIOS, ExperimentConfig,
                     load_config, normalize, dumps)
from .scenarios import ScenarioResult, run_scenario

__all__ = [
    "PhysicalParams", "UnitSystem", "make_recoil_units",
    "SODIUM_MASS_KG", "SODIUM_WAVELENGTH_M",
    "Grid2D", "TransverseField", "LadderState", "save_field", "load_field",
    "SimulationError", "ConfigError", "GuardError", "TruncationError",
    "StepSizeError", "ConvergenceError", "GridOverflowError",
    "DensityFloorError", "ContrastError", "AmbiguousHoleError",
    "CalibrationError",
    "MAX_WINDING", "BeamSpec", "CouplingMap", "coupling_map",
    "uniform_coupling", "phase_readout_pattern",
    "TrapSpec", "GroundState", "g2d_from_tf_radius", "thomas_fermi_profile",
    "gaussian_profile", "relax_ground_state", "gpe_energy",
    "PulseSpec", "detuning_ladder", "evolve_pulse", "evolve_free",
    "run_sequence", "calibrate_pi_pulse",
    "ImagePlane", "PATTERN_KINDS", "time_of_flight", "absorption_image",
    "analytic_pattern", "radial_profile", "write_pgm", "read_pgm",
    "VortexReport", "StudyResult", "oam_expectation", "vortex_report",
    "hole_angle", "fit_circular_slope", "phase_correlation_study",
    "SCHEMA_VERSION", "SCENARIOS", "ExperimentConfig", "load_config",
    "normalize", "dumps",
    "ScenarioResult", "run_scenario",
    "__version__",
]
