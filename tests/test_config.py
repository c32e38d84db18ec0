"""Schema validation, defaulting, and domain-object construction."""

import json
import math
import re
from pathlib import Path

import pytest

from ramanvortex import config as config_module
from ramanvortex.condensate import g2d_from_tf_radius
from ramanvortex.config import (SCHEMA_VERSION, SCENARIOS, ExperimentConfig,
                                dumps, load_config, loads, normalize)
from ramanvortex.errors import ConfigError

from test_optics import loop_winding

ROOT = Path(__file__).resolve().parents[1]
PRESETS = sorted((ROOT / "configs").glob("*.json"))


def minimal(scenario="custom", **overrides):
    data = {"schema_version": SCHEMA_VERSION, "scenario": scenario}
    data.update(overrides)
    return data


def two_beam_pulse(**pulse_overrides):
    pulse = {"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 5.5e4,
             "detuning_recoils": 4.0, "duration_s": 1.3e-4}
    pulse.update(pulse_overrides)
    return {
        "beams": {
            "lg": {"kind": "lg", "waist_m": 85e-6, "winding": 1},
            "g": {"kind": "gaussian", "waist_m": 175e-6},
        },
        "pulses": [pulse],
    }


def problems_of(data):
    with pytest.raises(ConfigError) as info:
        normalize(data)
    return info.value.problems


class TestNormalize:
    def test_minimal_config_gets_all_defaults(self):
        echo = normalize(minimal())
        assert echo["scenario"] == "custom"
        assert echo["output_dir"] == "runs/custom"
        assert echo["seed"] == 0
        assert echo["atom"]["mass_kg"] == pytest.approx(3.8175e-26)
        assert echo["grid"]["points_y"] == 256
        assert echo["grid"]["n_max"] == 3
        assert echo["trap"]["nu_z_hz"] == 40.0
        assert echo["condensate"]["profile"] == "thomas_fermi"
        assert echo["beams"] == {}
        assert echo["pulses"] == []
        assert echo["imaging"]["time_of_flight_s"] == 6e-3
        assert echo["study"]["n_trials"] == 18
        assert echo["sweep"]["points"] == 17

    def test_echo_is_round_trippable(self):
        echo = normalize(minimal("single_vortex", **two_beam_pulse()))
        assert normalize(echo) == echo
        assert normalize(json.loads(dumps(echo))) == echo

    def test_given_values_survive_defaulting(self):
        echo = normalize(minimal(seed=7, output_dir="elsewhere",
                                 grid={"points_y": 64}))
        assert echo["seed"] == 7
        assert echo["output_dir"] == "elsewhere"
        assert echo["grid"]["points_y"] == 64
        assert echo["grid"]["points_z"] == 256

    def test_missing_version_and_scenario_both_reported(self):
        problems = problems_of({})
        assert any(p.startswith("schema_version") for p in problems)
        assert any(p.startswith("scenario") for p in problems)

    def test_unsupported_version(self):
        problems = problems_of({"schema_version": 99, "scenario": "custom"})
        assert any("unsupported" in p for p in problems)

    def test_unknown_scenario_lists_choices(self):
        problems = problems_of(minimal("votex"))
        assert any(all(s in p for s in SCENARIOS) for p in problems)

    def test_unknown_key_suggests_nearest(self):
        problems = problems_of(minimal(
            imaging={"time_of_fligth_s": 3e-3}))
        assert problems == ["imaging.time_of_fligth_s: unknown key "
                            "(did you mean 'time_of_flight_s'?)"]

    def test_negative_duration_names_the_key(self):
        data = minimal("single_vortex", **two_beam_pulse(duration_s=-3e-5))
        problems = problems_of(data)
        assert len(problems) == 1
        assert problems[0].startswith("pulses[0].duration_s: must be > 0")

    def test_undefined_beam_reference_suggested(self):
        data = minimal("custom", **two_beam_pulse(absorb="lgg"))
        problems = problems_of(data)
        assert "pulses[0].absorb" in problems[0]
        assert "did you mean 'lg'" in problems[0]

    def test_all_problems_reported_at_once(self):
        data = minimal("votex", seed=-1,
                       grid={"points_y": 100, "n_max": 0},
                       imaging={"noise_rms": -0.5})
        assert len(problems_of(data)) == 5

    def test_gaussian_beam_with_winding_rejected(self):
        data = minimal(beams={"g": {"kind": "gaussian", "waist_m": 1e-4,
                                    "winding": 1}})
        assert any("carries no winding" in p for p in problems_of(data))

    def test_winding_transfer_per_pulse_capped(self):
        data = minimal(
            beams={"up": {"kind": "lg", "waist_m": 1e-4, "winding": 2},
                   "down": {"kind": "lg", "waist_m": 1e-4, "winding": -2}},
            pulses=[{"absorb": "up", "emit": "down",
                     "rabi_rate_rad_s": 1e4, "detuning_recoils": 4.0,
                     "duration_s": 1e-5}])
        assert any("winding transfer 4" in p for p in problems_of(data))

    def test_condensate_needs_exactly_one_interaction_input(self):
        both = minimal(condensate={"tf_radius_y_m": 3e-5,
                                   "g2d_j_m2": 2e-40})
        neither = minimal(condensate={"tf_radius_y_m": None,
                                      "g2d_j_m2": None})
        assert any("exactly one" in p for p in problems_of(both))
        assert any("exactly one" in p for p in problems_of(neither))

    def test_g2d_override_clears_radius_default(self):
        echo = normalize(minimal(condensate={"g2d_j_m2": 2e-40}))
        assert echo["condensate"]["tf_radius_y_m"] is None
        assert normalize(echo) == echo

    def test_phases_must_match_trial_count(self):
        data = minimal(study={"n_trials": 4, "phases_rad": [0.0, 1.0]})
        assert any("2 phases for 4 trials" in p for p in problems_of(data))

    def test_phases_must_take_two_distinct_values(self):
        # the phase study's slope fit needs two, so validation must catch
        # a constant list before any trial runs
        data = minimal(study={"n_trials": 3, "phases_rad": [1, 1, 1]})
        assert problems_of(data) == [
            "study.phases_rad: the slope fit needs at least two distinct "
            "phases (got [1.0, 1.0, 1.0])"]
        normalize(minimal(study={"n_trials": 3,
                                 "phases_rad": [1.0, 1.0, 2.0]}))

    def test_phases_must_be_finite(self):
        text = json.dumps(minimal(study={"n_trials": 4, "phases_rad": [
            math.nan, 1.0, math.inf, -math.inf]}))
        with pytest.raises(ConfigError) as info:
            loads(text)
        assert info.value.problems == [
            "study.phases_rad[0]: must be finite",
            "study.phases_rad[2]: must be finite",
            "study.phases_rad[3]: must be finite"]

    def test_integer_beyond_float_range_is_not_finite(self):
        # JSON writes a Python int as its digits, 1 followed by 400 zeros
        huge = 10 ** 400
        text = json.dumps(minimal(grid={"extent_y_m": huge},
                                  study={"n_trials": 3,
                                         "phases_rad": [0.0, huge, 2.0]}))
        with pytest.raises(ConfigError) as info:
            loads(text)
        assert info.value.problems == [
            "grid.extent_y_m: must be finite",
            "study.phases_rad[1]: must be finite"]

    def test_annulus_and_sweep_ordering(self):
        data = minimal(study={"annulus_inner_m": 1e-5,
                              "annulus_outer_m": 5e-6},
                       sweep={"detuning_recoils_start": 6.0,
                              "detuning_recoils_stop": 2.0})
        problems = problems_of(data)
        assert any(p.startswith("study.annulus_outer_m") for p in problems)
        assert any(p.startswith("sweep.detuning_recoils_stop")
                   for p in problems)

    def test_boolean_is_not_a_number(self):
        data = minimal("custom", **two_beam_pulse(rabi_rate_rad_s=True))
        assert any("expected a number" in p for p in problems_of(data))

    def test_phase_coherence_pulse_shape_enforced(self):
        base = two_beam_pulse()
        base["beams"]["g2"] = {"kind": "gaussian", "waist_m": 2e-4}
        one_pulse = minimal("phase_coherence", **base)
        assert any("exactly 2 pulses" in p for p in problems_of(one_pulse))

        mismatch = minimal("phase_coherence", beams=base["beams"], pulses=[
            base["pulses"][0],
            {"absorb": "g2", "emit": "g", "rabi_rate_rad_s": 3.5e4,
             "detuning_recoils": 8.0, "duration_s": 3e-5},
        ])
        assert any("share one detuning" in p for p in problems_of(mismatch))

        wrong_shared = minimal("phase_coherence", beams=base["beams"], pulses=[
            base["pulses"][0],
            {"absorb": "g", "emit": "g2", "rabi_rate_rad_s": 3.5e4,
             "detuning_recoils": 4.0, "duration_s": 3e-5},
        ])
        assert any("counter-propagating" in p for p in problems_of(wrong_shared))

    def test_double_charge_needs_a_readout_pulse(self):
        data = minimal("double_charge", **two_beam_pulse())
        assert any("at least 2 pulses" in p for p in problems_of(data))

    def test_invalid_json_reported_as_config_error(self):
        with pytest.raises(ConfigError) as info:
            loads("{not json")
        assert "not valid JSON" in info.value.problems[0]

    def test_file_validation_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(dumps(normalize(minimal())))
        echo = load_config(path)
        assert echo == normalize(minimal())
        assert normalize(echo) == echo


class TestMaterialization:
    def make_config(self, **overrides):
        data = minimal("single_vortex", **two_beam_pulse())
        data["grid"] = {"points_y": 64, "points_z": 64}
        data.update(overrides)
        return ExperimentConfig.from_mapping(data)

    def test_grid_trap_and_interaction(self):
        cfg = self.make_config()
        units = cfg.units()
        grid = cfg.make_grid(units)
        assert (grid.n_y, grid.n_z) == (64, 64)
        expected = g2d_from_tf_radius(cfg.trap(), 30e-6, units)
        assert cfg.g2d_j_m2(units) == pytest.approx(expected)
        ground = cfg.ground_state(grid)
        assert ground.tf_radii_m[0] == pytest.approx(30e-6)

    def test_sequence_carries_winding_step_and_hold(self):
        cfg = self.make_config()
        cfg.data["pulses"][0]["delay_after_s"] = 2e-4
        grid = cfg.make_grid()
        pulses = cfg.pulses(grid)
        assert len(pulses) == 1
        assert loop_winding(pulses[0].coupling.omega.values, grid,
                            60e-6) == pytest.approx(1)
        assert pulses[0].duration_s == pytest.approx(1.3e-4)
        # the last pulse's delay is the hold before imaging
        assert pulses[0].delay_after_s == pytest.approx(2e-4)

    def test_sweep_detunings_span_inclusive(self):
        cfg = ExperimentConfig.from_mapping(minimal(
            "resonance_sweep",
            sweep={"detuning_recoils_start": 2.0,
                   "detuning_recoils_stop": 6.0, "points": 5},
            **two_beam_pulse()))
        points = cfg.sweep_detunings()
        assert points == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_beam_spec_reads_phase_rad(self):
        cfg = self.make_config()
        cfg.data["beams"]["lg"]["phase_rad"] = 0.25
        spec = cfg.beam_spec("lg")
        assert spec.phase == 0.25
        assert spec.winding == 1

    def test_empty_custom_sequence(self):
        cfg = ExperimentConfig.from_mapping(minimal())
        assert cfg.pulses(cfg.make_grid()) == ()


@pytest.mark.parametrize("path", PRESETS, ids=lambda p: p.name)
def test_preset_loads_normalizes_to_itself_and_builds_pulses(path):
    echo = load_config(path)
    assert normalize(json.loads(dumps(echo))) == echo
    cfg = ExperimentConfig(echo)
    pulses = cfg.pulses(cfg.make_grid())
    assert len(pulses) == len(echo["pulses"]) > 0


def _table_keys(table):
    for key, _reader, default, _limits in table:
        yield key
        if isinstance(default, tuple):
            yield from _table_keys(default)


def test_readme_schema_block_names_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1]
    block = section.split("```", 2)[1]
    missing = [key for key in _table_keys(config_module._TOP)
               if not re.search(rf"\b{re.escape(key)}\b", block)]
    assert missing == []
