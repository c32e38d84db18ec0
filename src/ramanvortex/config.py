"""Experiment configuration: versioned schema, validation, materialization.

A run is described by a JSON object (schema_version 1).  Every physical
quantity carries its unit in the key name (``duration_s``, ``waist_m``,
``rabi_rate_rad_s``) so a config file is unambiguous on its own.  Validation
is all-at-once: every problem in the file is reported in a single
ConfigError, each prefixed with the dotted path of the offending key, and
unknown keys are rejected with a nearest-match suggestion.

``normalize`` returns the fully-defaulted echo of a config: a plain dict
with every schema key present, suitable for writing back out.  Normalizing
an echo is the identity, so saved echoes round-trip.  ``ExperimentConfig``
wraps a normalized mapping and knows how to build the domain objects
(unit system, grid, trap, beams, pulse sequence) that the scenario runner
consumes.
"""

from __future__ import annotations

import difflib
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .condensate import (GroundState, TrapSpec, g2d_from_tf_radius,
                         gaussian_profile, relax_ground_state,
                         thomas_fermi_profile)
from .dynamics import PulseSpec
from .errors import ConfigError
from .grid import Grid2D
from .optics import MAX_WINDING, BeamSpec, coupling_map
from .units import (SODIUM_MASS_KG, SODIUM_WAVELENGTH_M, PhysicalParams,
                    UnitSystem, make_recoil_units)

SCHEMA_VERSION = 1

SCENARIOS = ("single_vortex", "counter_rotating", "phase_coherence",
             "double_charge", "resonance_sweep", "custom")

_BEAM_KINDS = ("lg", "gaussian")
_PROFILES = ("thomas_fermi", "gaussian", "relaxed")

_TOP_KEYS = ("schema_version", "scenario", "output_dir", "seed", "atom",
             "grid", "trap", "condensate", "beams", "pulses", "imaging",
             "study", "sweep")
_ATOM_KEYS = ("mass_kg", "wavelength_m")
_GRID_KEYS = ("points_y", "points_z", "extent_y_m", "extent_z_m", "n_max")
_TRAP_KEYS = ("nu_y_hz", "nu_z_hz")
_CONDENSATE_KEYS = ("profile", "tf_radius_y_m", "g2d_j_m2")
_BEAM_KEYS = ("kind", "waist_m", "winding", "phase_rad", "power_w")
_PULSE_KEYS = ("absorb", "emit", "rabi_rate_rad_s", "detuning_recoils",
               "duration_s", "relative_phase_rad", "delay_after_s", "trap_on")
_IMAGING_KEYS = ("time_of_flight_s", "meanfield_window_s", "pixel_m",
                 "blur_sigma_m", "noise_rms", "pad_factor")
_STUDY_KEYS = ("n_trials", "phases_rad", "annulus_inner_m", "annulus_outer_m")
_SWEEP_KEYS = ("detuning_recoils_start", "detuning_recoils_stop", "points")


def _join(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else str(key)


def _suggest(key: str, allowed) -> str:
    close = difflib.get_close_matches(key, list(allowed), n=1, cutoff=0.5)
    if close:
        return f" (did you mean {close[0]!r}?)"
    return f" (valid keys: {', '.join(allowed)})"


def _reject_unknown(data: Mapping, allowed, path: str, problems: list) -> None:
    for key in data:
        if key not in allowed:
            problems.append(f"{_join(path, key)}: unknown key"
                            f"{_suggest(str(key), allowed)}")


def _section(data: Mapping, key: str, problems: list) -> Mapping:
    value = data.get(key, {})
    if not isinstance(value, Mapping):
        problems.append(f"{key}: expected an object")
        return {}
    return value


def _number(data: Mapping, key: str, path: str, problems: list, default,
            minimum=None, exclusive=False, maximum=None, allow_none=False):
    value = data.get(key, default)
    where = _join(path, key)
    if key not in data and default is None and not allow_none:
        problems.append(f"{where}: missing required key")
        return None
    if value is None:
        if allow_none:
            return None
        problems.append(f"{where}: expected a number, got null")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{where}: expected a number, got {value!r}")
        return default
    value = float(value)
    if not math.isfinite(value):
        problems.append(f"{where}: must be finite")
        return default
    if minimum is not None:
        if exclusive and value <= minimum:
            problems.append(f"{where}: must be > {minimum} (got {value!r})")
        elif not exclusive and value < minimum:
            problems.append(f"{where}: must be >= {minimum} (got {value!r})")
    if maximum is not None and value > maximum:
        problems.append(f"{where}: must be <= {maximum} (got {value!r})")
    return value


def _integer(data: Mapping, key: str, path: str, problems: list, default,
             minimum=None, maximum=None):
    value = data.get(key, default)
    where = _join(path, key)
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{where}: expected an integer, got {value!r}")
        return default
    if minimum is not None and value < minimum:
        problems.append(f"{where}: must be >= {minimum} (got {value})")
    if maximum is not None and value > maximum:
        problems.append(f"{where}: must be <= {maximum} (got {value})")
    return value


def _choice(data: Mapping, key: str, path: str, problems: list, default,
            allowed):
    value = data.get(key, default)
    if value not in allowed:
        problems.append(f"{_join(path, key)}: must be one of "
                        f"{', '.join(allowed)} (got {value!r})")
        return default
    return value


def _boolean(data: Mapping, key: str, path: str, problems: list, default):
    value = data.get(key, default)
    if not isinstance(value, bool):
        problems.append(f"{_join(path, key)}: expected true or false, "
                        f"got {value!r}")
        return default
    return value


def _power_of_two(data: Mapping, key: str, path: str, problems: list,
                  default):
    value = _integer(data, key, path, problems, default, minimum=8)
    if isinstance(value, int) and value >= 8 and value & (value - 1):
        problems.append(f"{_join(path, key)}: must be a power of two "
                        f"(got {value})")
    return value


def _normalize_beams(data: Mapping, problems: list) -> dict:
    beams = {}
    for name, raw in data.items():
        path = _join("beams", str(name))
        if not str(name).isidentifier():
            problems.append(f"beams: name {name!r} must be an identifier")
            continue
        if not isinstance(raw, Mapping):
            problems.append(f"{path}: expected an object")
            continue
        _reject_unknown(raw, _BEAM_KEYS, path, problems)
        kind = _choice(raw, "kind", path, problems, "gaussian", _BEAM_KINDS)
        winding = _integer(raw, "winding", path, problems, 0,
                           minimum=-MAX_WINDING, maximum=MAX_WINDING)
        if kind == "gaussian" and winding != 0:
            problems.append(f"{path}.winding: a gaussian beam carries no "
                            f"winding (got {winding})")
        beams[str(name)] = {
            "kind": kind,
            "waist_m": _number(raw, "waist_m", path, problems, None,
                               minimum=0.0, exclusive=True),
            "winding": winding,
            "phase_rad": _number(raw, "phase_rad", path, problems, 0.0),
            "power_w": _number(raw, "power_w", path, problems, 0.0,
                               minimum=0.0),
        }
    return beams


def _normalize_pulses(data, beams: Mapping, problems: list) -> list:
    if not isinstance(data, Sequence) or isinstance(data, (str, bytes)):
        problems.append("pulses: expected a list")
        return []
    pulses = []
    for i, raw in enumerate(data):
        path = f"pulses[{i}]"
        if not isinstance(raw, Mapping):
            problems.append(f"{path}: expected an object")
            continue
        _reject_unknown(raw, _PULSE_KEYS, path, problems)
        pulse = {}
        for role in ("absorb", "emit"):
            name = raw.get(role)
            if not isinstance(name, str) or name not in beams:
                known = sorted(beams)
                hint = _suggest(str(name), known) if known else ""
                problems.append(f"{path}.{role}: references undefined beam "
                                f"{name!r}{hint}")
                name = None
            pulse[role] = name
        pulse["rabi_rate_rad_s"] = _number(raw, "rabi_rate_rad_s", path,
                                           problems, None,
                                           minimum=0.0, exclusive=True)
        pulse["detuning_recoils"] = _number(raw, "detuning_recoils", path,
                                            problems, None)
        pulse["duration_s"] = _number(raw, "duration_s", path, problems,
                                      None, minimum=0.0, exclusive=True)
        pulse["relative_phase_rad"] = _number(raw, "relative_phase_rad",
                                              path, problems, 0.0)
        pulse["delay_after_s"] = _number(raw, "delay_after_s", path,
                                         problems, 0.0, minimum=0.0)
        pulse["trap_on"] = _boolean(raw, "trap_on", path, problems, True)
        a, b = pulse["absorb"], pulse["emit"]
        if a in beams and b in beams:
            step = beams[a]["winding"] - beams[b]["winding"]
            if abs(step) > MAX_WINDING:
                problems.append(f"{path}: winding transfer {step} per pulse "
                                f"exceeds |step| <= {MAX_WINDING}")
        pulses.append(pulse)
    return pulses


def _scenario_rules(out: Mapping, problems: list) -> None:
    scenario = out["scenario"]
    pulses = out["pulses"]
    beams = out["beams"]
    if scenario == "double_charge" and len(pulses) < 2:
        problems.append("pulses: double_charge needs at least 2 pulses "
                        "(the final pulse is the interference readout)")
    if scenario == "phase_coherence":
        if len(pulses) != 2:
            problems.append("pulses: phase_coherence uses exactly 2 pulses "
                            "(vortex imprint, then structureless top-up)")
            return
        first, second = pulses
        roles = (("pulses[0].absorb", first["absorb"], "lg"),
                 ("pulses[0].emit", first["emit"], "gaussian"),
                 ("pulses[1].absorb", second["absorb"], "gaussian"),
                 ("pulses[1].emit", second["emit"], "gaussian"))
        for path, name, kind in roles:
            if name in beams and beams[name]["kind"] != kind:
                problems.append(f"{path}: phase_coherence needs a {kind} "
                                f"beam here (got {beams[name]['kind']!r})")
        lg = beams.get(first["absorb"])
        if lg and lg["kind"] == "lg" and lg["winding"] != 1:
            problems.append("pulses[0].absorb: phase_coherence imprints "
                            f"winding 1 (beam has {lg['winding']})")
        if (first["emit"] in beams and second["emit"] in beams
                and second["emit"] != first["emit"]):
            problems.append("pulses[1].emit: phase_coherence reuses the "
                            "first pulse's counter-propagating beam (got "
                            f"{second['emit']!r}, expected "
                            f"{first['emit']!r})")
        d1, d2 = first["detuning_recoils"], second["detuning_recoils"]
        if d1 is not None and d2 is not None and d1 != d2:
            problems.append("pulses[1].detuning_recoils: both "
                            "phase_coherence pulses must share one "
                            f"detuning (got {d1} and {d2})")


def normalize(data) -> dict:
    """Validate a raw mapping and return the fully-defaulted echo.

    Raises ConfigError listing every problem found; each message starts
    with the dotted path of the key it concerns.
    """
    problems: list[str] = []
    if not isinstance(data, Mapping):
        raise ConfigError(["config root must be a JSON object"])
    _reject_unknown(data, _TOP_KEYS, "", problems)

    if "schema_version" not in data:
        problems.append("schema_version: missing (this tool writes "
                        f"schema_version {SCHEMA_VERSION})")
    version = _integer(data, "schema_version", "", problems, SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        problems.append(f"schema_version: unsupported version {version} "
                        f"(supported: {SCHEMA_VERSION})")

    if "scenario" not in data:
        problems.append(f"scenario: missing (one of {', '.join(SCENARIOS)})")
    scenario = _choice(data, "scenario", "", problems, "custom", SCENARIOS)

    output_dir = data.get("output_dir", f"runs/{scenario}")
    if not isinstance(output_dir, str) or not output_dir:
        problems.append(f"output_dir: expected a non-empty string, "
                        f"got {output_dir!r}")
        output_dir = f"runs/{scenario}"

    atom = _section(data, "atom", problems)
    _reject_unknown(atom, _ATOM_KEYS, "atom", problems)
    grid = _section(data, "grid", problems)
    _reject_unknown(grid, _GRID_KEYS, "grid", problems)
    trap = _section(data, "trap", problems)
    _reject_unknown(trap, _TRAP_KEYS, "trap", problems)
    condensate = _section(data, "condensate", problems)
    _reject_unknown(condensate, _CONDENSATE_KEYS, "condensate", problems)
    imaging = _section(data, "imaging", problems)
    _reject_unknown(imaging, _IMAGING_KEYS, "imaging", problems)
    study = _section(data, "study", problems)
    _reject_unknown(study, _STUDY_KEYS, "study", problems)
    sweep = _section(data, "sweep", problems)
    _reject_unknown(sweep, _SWEEP_KEYS, "sweep", problems)

    beams_raw = data.get("beams", {})
    if not isinstance(beams_raw, Mapping):
        problems.append("beams: expected an object of named beams")
        beams_raw = {}
    beams = _normalize_beams(beams_raw, problems)
    pulses = _normalize_pulses(data.get("pulses", []), beams, problems)

    phases = study.get("phases_rad")
    if phases is not None:
        if (not isinstance(phases, Sequence) or isinstance(phases, (str, bytes))
                or not all(isinstance(p, (int, float))
                           and not isinstance(p, bool) for p in phases)):
            problems.append("study.phases_rad: expected null or a list "
                            "of numbers")
            phases = None
        else:
            phases = [float(p) for p in phases]

    out = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "output_dir": output_dir,
        "seed": _integer(data, "seed", "", problems, 0, minimum=0),
        "atom": {
            "mass_kg": _number(atom, "mass_kg", "atom", problems,
                               SODIUM_MASS_KG, minimum=0.0, exclusive=True),
            "wavelength_m": _number(atom, "wavelength_m", "atom", problems,
                                    SODIUM_WAVELENGTH_M,
                                    minimum=0.0, exclusive=True),
        },
        "grid": {
            "points_y": _power_of_two(grid, "points_y", "grid", problems, 256),
            "points_z": _power_of_two(grid, "points_z", "grid", problems, 256),
            "extent_y_m": _number(grid, "extent_y_m", "grid", problems,
                                  160e-6, minimum=0.0, exclusive=True),
            "extent_z_m": _number(grid, "extent_z_m", "grid", problems,
                                  160e-6, minimum=0.0, exclusive=True),
            "n_max": _integer(grid, "n_max", "grid", problems, 3,
                              minimum=1, maximum=8),
        },
        "trap": {
            "nu_y_hz": _number(trap, "nu_y_hz", "trap", problems,
                               40.0 / math.sqrt(2.0), minimum=0.0),
            "nu_z_hz": _number(trap, "nu_z_hz", "trap", problems, 40.0,
                               minimum=0.0),
        },
        "condensate": {
            "profile": _choice(condensate, "profile", "condensate", problems,
                               "thomas_fermi", _PROFILES),
            # a given g2d replaces the TF-radius parametrization entirely
            "tf_radius_y_m": _number(condensate, "tf_radius_y_m",
                                     "condensate", problems,
                                     None if condensate.get("g2d_j_m2")
                                     is not None else 30e-6,
                                     minimum=0.0, exclusive=True,
                                     allow_none=True),
            "g2d_j_m2": _number(condensate, "g2d_j_m2", "condensate",
                                problems, None, minimum=0.0, exclusive=True,
                                allow_none=True),
        },
        "beams": beams,
        "pulses": pulses,
        "imaging": {
            "time_of_flight_s": _number(imaging, "time_of_flight_s",
                                        "imaging", problems, 6e-3,
                                        minimum=0.0),
            "meanfield_window_s": _number(imaging, "meanfield_window_s",
                                          "imaging", problems, 5e-4,
                                          minimum=0.0),
            "pixel_m": _number(imaging, "pixel_m", "imaging", problems,
                               1.25e-6, minimum=0.0, exclusive=True),
            "blur_sigma_m": _number(imaging, "blur_sigma_m", "imaging",
                                    problems, 0.0, minimum=0.0),
            "noise_rms": _number(imaging, "noise_rms", "imaging", problems,
                                 0.0, minimum=0.0),
            "pad_factor": _number(imaging, "pad_factor", "imaging", problems,
                                  2.0, minimum=2.0),
        },
        "study": {
            "n_trials": _integer(study, "n_trials", "study", problems, 18,
                                 minimum=3),
            "phases_rad": phases,
            "annulus_inner_m": _number(study, "annulus_inner_m", "study",
                                       problems, 5e-6,
                                       minimum=0.0, exclusive=True),
            "annulus_outer_m": _number(study, "annulus_outer_m", "study",
                                       problems, 12e-6,
                                       minimum=0.0, exclusive=True),
        },
        "sweep": {
            "detuning_recoils_start": _number(sweep, "detuning_recoils_start",
                                              "sweep", problems, 2.0),
            "detuning_recoils_stop": _number(sweep, "detuning_recoils_stop",
                                             "sweep", problems, 6.0),
            "points": _integer(sweep, "points", "sweep", problems, 17,
                               minimum=2),
        },
    }

    cond = out["condensate"]
    if (cond["tf_radius_y_m"] is None) == (cond["g2d_j_m2"] is None):
        problems.append("condensate: set exactly one of tf_radius_y_m and "
                        "g2d_j_m2 (the other null)")
    if out["study"]["annulus_outer_m"] <= out["study"]["annulus_inner_m"]:
        problems.append("study.annulus_outer_m: must exceed annulus_inner_m")
    if (out["sweep"]["detuning_recoils_stop"]
            <= out["sweep"]["detuning_recoils_start"]):
        problems.append("sweep.detuning_recoils_stop: must exceed "
                        "detuning_recoils_start")
    if phases is not None and len(phases) != out["study"]["n_trials"]:
        problems.append(f"study.phases_rad: {len(phases)} phases for "
                        f"{out['study']['n_trials']} trials")
    _scenario_rules(out, problems)

    if problems:
        raise ConfigError(problems)
    return out


def loads(text: str) -> dict:
    """Parse JSON text and normalize it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    return normalize(data)


def load_config(path) -> dict:
    """Read, parse and normalize a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(config: Mapping) -> str:
    """Serialize a normalized config the way the presets are written."""
    return json.dumps(config, indent=2) + "\n"


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config plus constructors for the domain objects."""

    data: dict

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        return cls(normalize(mapping))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(load_config(path))

    @property
    def scenario(self) -> str:
        return self.data["scenario"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def output_dir(self) -> str:
        return self.data["output_dir"]

    @property
    def n_max(self) -> int:
        return self.data["grid"]["n_max"]

    def units(self) -> UnitSystem:
        atom = self.data["atom"]
        return make_recoil_units(PhysicalParams(atom["mass_kg"],
                                                atom["wavelength_m"]))

    def make_grid(self, units: UnitSystem | None = None) -> Grid2D:
        g = self.data["grid"]
        return Grid2D(g["points_y"], g["points_z"], g["extent_y_m"],
                      g["extent_z_m"], units or self.units())

    def trap(self) -> TrapSpec:
        t = self.data["trap"]
        return TrapSpec(t["nu_y_hz"], t["nu_z_hz"])

    def g2d_j_m2(self, units: UnitSystem) -> float:
        cond = self.data["condensate"]
        if cond["g2d_j_m2"] is not None:
            return cond["g2d_j_m2"]
        return g2d_from_tf_radius(self.trap(), cond["tf_radius_y_m"], units)

    def ground_state(self, grid: Grid2D) -> GroundState:
        profile = self.data["condensate"]["profile"]
        trap = self.trap()
        g2d = self.g2d_j_m2(grid.units)
        if profile == "gaussian":
            return gaussian_profile(trap, grid)
        ground = thomas_fermi_profile(trap, g2d, grid)
        if profile == "relaxed":
            ground = relax_ground_state(ground, trap, g2d)
        return ground

    def beam_spec(self, name: str, extra_phase_rad: float = 0.0) -> BeamSpec:
        b = self.data["beams"][name]
        return BeamSpec(b["kind"], b["waist_m"], winding=b["winding"],
                        power_w=b["power_w"],
                        phase=b["phase_rad"] + extra_phase_rad)

    def pulse_spec(self, index: int, grid: Grid2D,
                   absorb_phase_rad: float = 0.0) -> PulseSpec:
        """Pulse `index` as configured, with its delay and trap setting,
        optionally with an extra phase on the absorbed beam."""
        p = self.data["pulses"][index]
        coupling = coupling_map(self.beam_spec(p["absorb"], absorb_phase_rad),
                                self.beam_spec(p["emit"]),
                                p["rabi_rate_rad_s"],
                                p["relative_phase_rad"], grid)
        return PulseSpec(coupling, p["detuning_recoils"], p["duration_s"],
                         trap_on=p["trap_on"],
                         delay_after_s=p["delay_after_s"])

    def pulses(self, grid: Grid2D) -> tuple[PulseSpec, ...]:
        """The configured pulse sequence; the last pulse's delay_after_s is
        the hold before imaging."""
        return tuple(self.pulse_spec(i, grid)
                     for i in range(len(self.data["pulses"])))

    def sweep_detunings(self) -> list[float]:
        s = self.data["sweep"]
        lo, hi, n = (s["detuning_recoils_start"],
                     s["detuning_recoils_stop"], s["points"])
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
