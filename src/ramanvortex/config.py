"""Experiment configuration: versioned schema, validation, materialization.

A run is described by a JSON object (schema_version 1).  Every physical
quantity carries its unit in the key name (``duration_s``, ``waist_m``,
``rabi_rate_rad_s``) so a config file is unambiguous on its own.  Validation
is all-at-once: every problem in the file is reported in a single
ConfigError, each prefixed with the dotted path of the offending key, and
unknown keys are rejected with a nearest-match suggestion.

Each schema key is declared once, as a row (key, reader, default, limits)
of its object's field table: the top level with its sections, a beam, a
pulse.  One loop reads an object against its table: it rejects unknown
keys, fills defaults and checks limits.  ``normalize`` then applies the
checks that span keys and returns the fully-defaulted echo: a plain dict
with every schema key present, in table order, suitable for writing back
out.  Normalizing an echo is the identity, so saved echoes round-trip.

``ExperimentConfig`` wraps a normalized mapping and builds the domain
objects (unit system, grid, trap, beams, ground state) that the scenario
runner consumes.  ``ExperimentConfig.pulses`` is the one way from a config
to a pulse sequence; scenarios that vary a pulse (the detuning sweep, the
phase study) derive it from that sequence.
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


def _float(value) -> float:
    """float(value), with a JSON integer beyond float range read as inf so
    that the finiteness check reports it."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


# Readers.  Each takes (data, key, path, problems, default, **limits),
# reports what is wrong with data[key] and returns the value to echo.

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
    value = _float(value)
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


def _numbers(data: Mapping, key: str, path: str, problems: list, default):
    """null, or a list of finite numbers."""
    value = data.get(key, default)
    if value is None:
        return None
    where = _join(path, key)
    if (not isinstance(value, Sequence) or isinstance(value, (str, bytes))
            or not all(isinstance(v, (int, float))
                       and not isinstance(v, bool) for v in value)):
        problems.append(f"{where}: expected null or a list of numbers")
        return None
    values = [_float(v) for v in value]
    bad = [i for i, v in enumerate(values) if not math.isfinite(v)]
    for i in bad:
        problems.append(f"{_join(where, i)}: must be finite")
    return None if bad else values


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


def _power_of_two(data: Mapping, key: str, path: str, problems: list,
                  default):
    value = _integer(data, key, path, problems, default, minimum=8)
    if isinstance(value, int) and value >= 8 and value & (value - 1):
        problems.append(f"{_join(path, key)}: must be a power of two "
                        f"(got {value})")
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


def _text(data: Mapping, key: str, path: str, problems: list, default):
    """A non-empty string; an absent key reads as default."""
    value = data.get(key, default)
    if key in data and (not isinstance(value, str) or not value):
        problems.append(f"{_join(path, key)}: expected a non-empty string, "
                        f"got {value!r}")
        return default
    return value


def _tf_radius(data: Mapping, key: str, path: str, problems: list, default,
               **limits):
    """A number whose default is null once g2d_j_m2 is given: a given g2d
    replaces the TF-radius parametrization entirely."""
    if data.get("g2d_j_m2") is not None:
        default = None
    return _number(data, key, path, problems, default, **limits)


def _beam_name(data: Mapping, key: str, path: str, problems: list, default):
    """Taken as given; normalize checks it against the defined beams."""
    return data.get(key, default)


def _fields(data: Mapping, table, path: str, problems: list) -> dict:
    """Read one object against its field table, in table order."""
    _reject_unknown(data, [row[0] for row in table], path, problems)
    return {key: reader(data, key, path, problems, default, **limits)
            for key, reader, default, limits in table}


# Readers of nested objects; their default is the field table to read.

def _object(data: Mapping, key: str, path: str, problems: list, table):
    value = data.get(key, {})
    where = _join(path, key)
    if not isinstance(value, Mapping):
        problems.append(f"{where}: expected an object")
        value = {}
    return _fields(value, table, where, problems)


def _beams(data: Mapping, key: str, path: str, problems: list, table):
    value = data.get(key, {})
    where = _join(path, key)
    if not isinstance(value, Mapping):
        problems.append(f"{where}: expected an object of named beams")
        return {}
    beams = {}
    for name, raw in value.items():
        if not str(name).isidentifier():
            problems.append(f"{where}: name {name!r} must be an identifier")
        elif not isinstance(raw, Mapping):
            problems.append(f"{_join(where, str(name))}: expected an object")
        else:
            beams[str(name)] = _fields(raw, table, _join(where, str(name)),
                                       problems)
    return beams


def _pulses(data: Mapping, key: str, path: str, problems: list, table):
    value = data.get(key, [])
    where = _join(path, key)
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        problems.append(f"{where}: expected a list")
        return []
    pulses = []
    for i, raw in enumerate(value):
        if isinstance(raw, Mapping):
            pulses.append(_fields(raw, table, _join(where, i), problems))
        else:
            # a placeholder keeps later pulses at their list index
            problems.append(f"{_join(where, i)}: expected an object")
            pulses.append(None)
    return pulses


# Field tables: (key, reader, default, limits) per key, in echo order.
# A default of None marks a required key unless the limits allow null.
_POSITIVE = {"minimum": 0.0, "exclusive": True}
_NON_NEGATIVE = {"minimum": 0.0}

_BEAM = (
    ("kind", _choice, "gaussian", {"allowed": _BEAM_KINDS}),
    ("waist_m", _number, None, _POSITIVE),
    ("winding", _integer, 0, {"minimum": -MAX_WINDING,
                              "maximum": MAX_WINDING}),
    ("phase_rad", _number, 0.0, {}),
    # echoed so that old configs load; nothing reads it
    ("power_w", _number, 0.0, _NON_NEGATIVE),
)

_PULSE = (
    ("absorb", _beam_name, None, {}),
    ("emit", _beam_name, None, {}),
    ("rabi_rate_rad_s", _number, None, _POSITIVE),
    ("detuning_recoils", _number, None, {}),
    ("duration_s", _number, None, _POSITIVE),
    ("relative_phase_rad", _number, 0.0, {}),
    ("delay_after_s", _number, 0.0, _NON_NEGATIVE),
    ("trap_on", _boolean, True, {}),
)

_TOP = (
    ("schema_version", _integer, SCHEMA_VERSION, {}),
    ("scenario", _choice, "custom", {"allowed": SCENARIOS}),
    # None until normalize fills in runs/<scenario>
    ("output_dir", _text, None, {}),
    ("seed", _integer, 0, {"minimum": 0}),
    ("atom", _object, (
        ("mass_kg", _number, SODIUM_MASS_KG, _POSITIVE),
        ("wavelength_m", _number, SODIUM_WAVELENGTH_M, _POSITIVE),
    ), {}),
    ("grid", _object, (
        ("points_y", _power_of_two, 256, {}),
        ("points_z", _power_of_two, 256, {}),
        ("extent_y_m", _number, 160e-6, _POSITIVE),
        ("extent_z_m", _number, 160e-6, _POSITIVE),
        ("n_max", _integer, 3, {"minimum": 1, "maximum": 8}),
    ), {}),
    ("trap", _object, (
        ("nu_y_hz", _number, 40.0 / math.sqrt(2.0), _NON_NEGATIVE),
        ("nu_z_hz", _number, 40.0, _NON_NEGATIVE),
    ), {}),
    ("condensate", _object, (
        ("profile", _choice, "thomas_fermi", {"allowed": _PROFILES}),
        ("tf_radius_y_m", _tf_radius, 30e-6, dict(_POSITIVE, allow_none=True)),
        ("g2d_j_m2", _number, None, dict(_POSITIVE, allow_none=True)),
    ), {}),
    ("beams", _beams, _BEAM, {}),
    ("pulses", _pulses, _PULSE, {}),
    ("imaging", _object, (
        ("time_of_flight_s", _number, 6e-3, _NON_NEGATIVE),
        ("meanfield_window_s", _number, 5e-4, _NON_NEGATIVE),
        ("pixel_m", _number, 1.25e-6, _POSITIVE),
        ("blur_sigma_m", _number, 0.0, _NON_NEGATIVE),
        ("noise_rms", _number, 0.0, _NON_NEGATIVE),
        ("pad_factor", _number, 2.0, {"minimum": 2.0}),
    ), {}),
    ("study", _object, (
        ("n_trials", _integer, 18, {"minimum": 3}),
        ("phases_rad", _numbers, None, {}),
        ("annulus_inner_m", _number, 5e-6, _POSITIVE),
        ("annulus_outer_m", _number, 12e-6, _POSITIVE),
    ), {}),
    ("sweep", _object, (
        ("detuning_recoils_start", _number, 2.0, {}),
        ("detuning_recoils_stop", _number, 6.0, {}),
        ("points", _integer, 17, {"minimum": 2}),
    ), {}),
)


def _beam_rules(beams: Mapping, pulses: list, problems: list) -> None:
    for name, beam in beams.items():
        if beam["kind"] == "gaussian" and beam["winding"] != 0:
            problems.append(f"beams.{name}.winding: a gaussian beam carries "
                            f"no winding (got {beam['winding']})")
    for i, pulse in enumerate(pulses):
        if pulse is None:
            continue
        for role in ("absorb", "emit"):
            name = pulse[role]
            if not isinstance(name, str) or name not in beams:
                known = sorted(beams)
                hint = _suggest(str(name), known) if known else ""
                problems.append(f"pulses[{i}].{role}: references undefined "
                                f"beam {name!r}{hint}")
                pulse[role] = None
        a, b = pulse["absorb"], pulse["emit"]
        if a in beams and b in beams:
            step = beams[a]["winding"] - beams[b]["winding"]
            if abs(step) > MAX_WINDING:
                problems.append(f"pulses[{i}]: winding transfer {step} per "
                                f"pulse exceeds |step| <= {MAX_WINDING}")


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
    if not isinstance(data, Mapping):
        raise ConfigError(["config root must be a JSON object"])
    problems: list[str] = []
    out = _fields(data, _TOP, "", problems)

    if "schema_version" not in data:
        problems.append("schema_version: missing (this tool writes "
                        f"schema_version {SCHEMA_VERSION})")
    if out["schema_version"] != SCHEMA_VERSION:
        problems.append("schema_version: unsupported version "
                        f"{out['schema_version']} (supported: "
                        f"{SCHEMA_VERSION})")
    if "scenario" not in data:
        problems.append(f"scenario: missing (one of {', '.join(SCENARIOS)})")
    if out["output_dir"] is None:
        out["output_dir"] = f"runs/{out['scenario']}"

    cond = out["condensate"]
    if (cond["tf_radius_y_m"] is None) == (cond["g2d_j_m2"] is None):
        problems.append("condensate: set exactly one of tf_radius_y_m and "
                        "g2d_j_m2 (the other null)")
    _beam_rules(out["beams"], out["pulses"], problems)
    out["pulses"] = [p for p in out["pulses"] if p is not None]
    study = out["study"]
    if study["annulus_outer_m"] <= study["annulus_inner_m"]:
        problems.append("study.annulus_outer_m: must exceed annulus_inner_m")
    if (out["sweep"]["detuning_recoils_stop"]
            <= out["sweep"]["detuning_recoils_start"]):
        problems.append("sweep.detuning_recoils_stop: must exceed "
                        "detuning_recoils_start")
    phases = study["phases_rad"]
    if phases is not None and len(phases) != study["n_trials"]:
        problems.append(f"study.phases_rad: {len(phases)} phases for "
                        f"{study['n_trials']} trials")
    elif phases is not None and len(set(phases)) < 2:
        problems.append("study.phases_rad: the slope fit needs at least "
                        f"two distinct phases (got {phases})")
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

    def make_grid(self) -> Grid2D:
        g = self.data["grid"]
        return Grid2D(g["points_y"], g["points_z"], g["extent_y_m"],
                      g["extent_z_m"], self.units())

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

    def beam_spec(self, name: str) -> BeamSpec:
        b = self.data["beams"][name]
        return BeamSpec(b["kind"], b["waist_m"], winding=b["winding"],
                        phase=b["phase_rad"])

    def pulses(self, grid: Grid2D) -> tuple[PulseSpec, ...]:
        """The configured pulse sequence, one coupling_map per pulse; the
        last pulse's delay_after_s is the hold before imaging."""
        return tuple(
            PulseSpec(coupling_map(self.beam_spec(p["absorb"]),
                                   self.beam_spec(p["emit"]),
                                   p["rabi_rate_rad_s"],
                                   p["relative_phase_rad"], grid),
                      p["detuning_recoils"], p["duration_s"],
                      trap_on=p["trap_on"], delay_after_s=p["delay_after_s"])
            for p in self.data["pulses"])

    def sweep_detunings(self) -> list[float]:
        s = self.data["sweep"]
        lo, hi, n = (s["detuning_recoils_start"],
                     s["detuning_recoils_stop"], s["points"])
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
