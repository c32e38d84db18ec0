"""Scenario bundles: artifact inventory, determinism, and wiring."""

import gc
import json
import logging
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ramanvortex import config as config_module
from ramanvortex import dynamics, scenarios
from ramanvortex.config import ExperimentConfig
from ramanvortex.diagnostics import hole_angle, phase_correlation_study
from ramanvortex.dynamics import run_sequence
from ramanvortex.grid import LadderState, load_field, read_sidecar
from ramanvortex.imaging import (PATTERN_KINDS, ImagePlane, absorption_image,
                                 analytic_pattern, read_pgm)
from ramanvortex.optics import phase_readout_pattern, scaled_coupling
from ramanvortex.scenarios import run_scenario

BEAMS = {
    "lg": {"kind": "lg", "waist_m": 85e-6, "winding": 1},
    "g": {"kind": "gaussian", "waist_m": 175e-6},
    "wide": {"kind": "gaussian", "waist_m": 200e-6},
}


def small(scenario, pulses, tmp_path, **extra):
    data = {
        "schema_version": 1,
        "scenario": scenario,
        "output_dir": str(tmp_path / scenario),
        "grid": {"points_y": 64, "points_z": 64},
        "beams": dict(BEAMS),
        "pulses": pulses,
    }
    data.update(extra)
    return data


def vortex_pulse(**overrides):
    pulse = {"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 7.3e4,
             "detuning_recoils": 4.0, "duration_s": 3.0e-5}
    pulse.update(overrides)
    return pulse


class TestCustomIdentity:
    def test_empty_sequence_returns_prepared_ground_state(self, tmp_path):
        config = small("custom", [], tmp_path,
                       imaging={"time_of_flight_s": 0.0})
        result = run_scenario(config)
        assert result.summary["population_order_0"] == pytest.approx(1.0)
        for n in (-3, -2, -1, 1, 2, 3):
            assert result.summary[f"population_order_{_tag(n)}"] == 0.0

        # the dumped field is the ground state itself
        cfg = ExperimentConfig.from_mapping(config)
        ground = cfg.ground_state(cfg.make_grid())
        dumped, _ = load_field(
            str(Path(result.output_dir) / "field_order_0.bin"), cfg.units())
        np.testing.assert_allclose(dumped.values, ground.field.values,
                                   rtol=0, atol=1e-12)


def short_config(scenario, tmp_path):
    """A short, flightless small() config of each scenario."""
    pulses = {
        "single_vortex": [vortex_pulse(duration_s=1.5e-5)],
        "counter_rotating": [vortex_pulse(duration_s=1.5e-5),
                             vortex_pulse(detuning_recoils=-4.0,
                                          duration_s=1.5e-5)],
        "phase_coherence": [vortex_pulse(duration_s=1.5e-5),
                            vortex_pulse(absorb="wide", duration_s=1.5e-5)],
        "double_charge": double_charge_pulses(),
        "resonance_sweep": [vortex_pulse(duration_s=1.5e-5)],
        "custom": [vortex_pulse(duration_s=1.5e-5)],
    }[scenario]
    return small(scenario, pulses, tmp_path,
                 grid={"points_y": 64, "points_z": 64, "n_max": 4},
                 imaging={"time_of_flight_s": 0.0},
                 study={"n_trials": 3},
                 sweep={"detuning_recoils_start": 3.0,
                        "detuning_recoils_stop": 5.0, "points": 2})


class TestEveryScenario:
    @pytest.mark.parametrize("scenario", sorted(scenarios._RUNNERS))
    def test_ground_image_comes_first_and_header_leads_the_summary(
            self, scenario, tmp_path):
        result = run_scenario(short_config(scenario, tmp_path))
        assert result.artifacts[:3] == ("config_echo.json",
                                        "ground_density.pgm",
                                        "ground_density.pgm.meta")
        assert list(result.summary)[:6] == [
            "scenario", "schema_version", "seed", "chemical_potential_j",
            "tf_radius_y_m", "tf_radius_z_m"]
        assert result.summary["scenario"] == scenario


def assert_same_bundle(a, b):
    """Two bundles, each as (directory, artifact names), hold the same
    files byte for byte; config echoes may differ in output_dir only."""
    (dir_a, names_a), (dir_b, names_b) = a, b
    assert names_a == names_b
    # every sidecar is listed, so the byte comparison below covers it
    metas = {path.relative_to(dir_a).as_posix()
             for path in dir_a.rglob("*.meta")}
    assert metas and metas <= set(names_a)
    for name in names_a:
        if name == "config_echo.json":
            # echoes differ only in the output_dir they record
            a = json.loads((dir_a / name).read_text())
            b = json.loads((dir_b / name).read_text())
            a.pop("output_dir"), b.pop("output_dir")
            assert a == b
            continue
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


class TestStartRecord:
    def test_logs_the_ground_states_high_k_share(self, tmp_path, caplog):
        config = small("custom", [], tmp_path,
                       imaging={"time_of_flight_s": 0.0})
        quiet = run_scenario(config)
        config["output_dir"] = str(tmp_path / "logged")
        # with the root logger at DEBUG the quiet run's record is captured
        # too
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.scenarios"):
            logged = run_scenario(config)
        (message,) = [r.getMessage() for r in caplog.records
                      if "high-k share" in r.getMessage()]
        cfg = ExperimentConfig.from_mapping(config)
        grid = cfg.make_grid()
        spec = np.fft.fft2(cfg.ground_state(grid).field.values, norm="ortho")
        cut = 0.5 * math.pi / max(grid.dy, grid.dz)
        power = np.abs(spec) ** 2
        share = power[grid.mesh_ksq > cut * cut].sum() / power.sum()
        assert message == (f"ground state on the 64x64 grid: high-k share "
                           f"{share:.3g} (in-trap window limit 1e-05)")
        # the record moves nothing
        assert_same_bundle((Path(quiet.output_dir), quiet.artifacts),
                           (Path(logged.output_dir), logged.artifacts))


def _tag(n):
    return f"m{-n}" if n < 0 else (str(n) if n == 0 else f"p{n}")


class TestSidecars:
    def test_every_sidecar_parses_as_key_value(self, tmp_path):
        config = small("custom", [vortex_pulse(duration_s=1.5e-5)], tmp_path,
                       imaging={"time_of_flight_s": 1e-3,
                                "meanfield_window_s": 1e-4})
        result = run_scenario(config)
        out = Path(result.output_dir)
        metas = sorted(out.rglob("*.meta"))
        # field dumps, PGM images and the summary
        assert {p.name.split(".")[-2] for p in metas} == {"bin", "pgm", "tsv"}
        for meta_path in metas:
            meta = read_sidecar(str(meta_path)[:-len(".meta")])
            assert meta and all(key.isidentifier() for key in meta), meta_path
        summary = read_sidecar(str(out / "summary.tsv"))
        assert summary["scenario"] == "custom"
        assert summary["schema_version"] == "1"


class TestDeterminism:
    def test_identical_runs_produce_identical_bytes(self, tmp_path):
        pulses = [vortex_pulse(duration_s=1.5e-5)]
        paths = []
        for name in ("a", "b"):
            config = small("single_vortex", pulses, tmp_path)
            config["output_dir"] = str(tmp_path / name)
            config["imaging"] = {"time_of_flight_s": 2e-3,
                                 "meanfield_window_s": 2e-4}
            result = run_scenario(config)
            paths.append((Path(result.output_dir), result.artifacts))
        assert_same_bundle(*paths)

    def test_seed_changes_only_noisy_images(self, tmp_path):
        pulses = [vortex_pulse(duration_s=1.5e-5)]
        summaries = []
        for seed in (1, 2):
            config = small("single_vortex", pulses, tmp_path)
            config["output_dir"] = str(tmp_path / f"seed{seed}")
            config["seed"] = seed
            config["imaging"] = {"time_of_flight_s": 0.0, "noise_rms": 0.02}
            summaries.append(run_scenario(config))
        pops = [s.summary["population_order_p1"] for s in summaries]
        assert pops[0] == pops[1]
        images = [read_pgm(str(Path(s.output_dir) / "ground_density.pgm"))[0]
                  for s in summaries]
        assert not np.array_equal(images[0].pixels, images[1].pixels)


class TestSingleVortex:
    def test_bundle_and_winding(self, tmp_path):
        config = small("single_vortex", [vortex_pulse()], tmp_path,
                       imaging={"time_of_flight_s": 2e-3,
                                "meanfield_window_s": 2e-4})
        result = run_scenario(config)
        assert result.summary["winding_order_p1"] == 1
        assert result.summary["l_z_order_p1"] == pytest.approx(1.0, abs=0.05)
        assert 0.1 < result.summary["population_order_p1"] < 0.35
        for name in ("config_echo.json", "ground_density.pgm",
                     "populations.tsv", "density_order_p1.pgm",
                     "tof_order_0.pgm", "tof_order_p1.pgm",
                     "summary.tsv", "summary.tsv.meta"):
            assert name in result.artifacts
            assert (Path(result.output_dir) / name).exists()

    def test_config_echo_is_normalized_and_loadable(self, tmp_path):
        config = small("single_vortex", [vortex_pulse()], tmp_path,
                       imaging={"time_of_flight_s": 0.0})
        result = run_scenario(config)
        echo = json.loads(
            (Path(result.output_dir) / "config_echo.json").read_text())
        assert echo["grid"]["points_y"] == 64
        assert echo["pulses"][0]["rabi_rate_rad_s"] == 7.3e4
        # echo re-runs to the same summary
        echo["output_dir"] = str(tmp_path / "echo_rerun")
        rerun = run_scenario(echo)
        assert rerun.summary == result.summary


class TestResonanceSweep:
    def test_peak_sits_at_the_ladder_resonance(self, tmp_path):
        config = small(
            "resonance_sweep", [vortex_pulse(duration_s=6e-5)], tmp_path,
            sweep={"detuning_recoils_start": 2.0,
                   "detuning_recoils_stop": 6.0, "points": 5})
        result = run_scenario(config)
        assert result.summary["n_points"] == 5
        assert result.summary["peak_detuning_recoils"] == 4.0
        table = (Path(result.output_dir) / "sweep_table.tsv").read_text()
        lines = [l for l in table.strip().split("\n") if l]
        assert len(lines) == 6
        header = lines[0].split("\t")
        assert header[0] == "detuning_recoils"
        assert "p_p1" in header
        for i in range(5):
            point = Path(result.output_dir) / f"point_{i:02d}/populations.tsv"
            assert point.exists()


class TestCounterRotating:
    def test_ports_balance_and_pattern_matches(self, tmp_path):
        config = small("counter_rotating", [
            vortex_pulse(),
            vortex_pulse(rabi_rate_rad_s=6.0e4, detuning_recoils=-4.0,
                         duration_s=6.0e-5),
            {"absorb": "wide", "emit": "wide", "rabi_rate_rad_s": 1.4e5,
             "detuning_recoils": 0.0, "duration_s": 1.0e-4},
        ], tmp_path, imaging={"time_of_flight_s": 3e-3,
                              "meanfield_window_s": 3e-4})
        result = run_scenario(config)
        p_minus = result.summary["population_order_m1"]
        p_plus = result.summary["population_order_p1"]
        assert 0.2 < p_minus + p_plus < 0.6
        assert abs(p_minus - p_plus) < 0.05
        assert result.summary["pattern_xcorr_order_p1"] > 0.85
        assert "pattern_counter_rotating.pgm" in result.artifacts


def double_charge_pulses():
    return [
        vortex_pulse(rabi_rate_rad_s=6.9e4),
        vortex_pulse(rabi_rate_rad_s=6.8e4, detuning_recoils=12.0,
                     duration_s=7.0e-5),
        {"absorb": "wide", "emit": "wide", "rabi_rate_rad_s": 1.6e5,
         "detuning_recoils": 8.0, "duration_s": 4.0e-5},
    ]


class TestDoubleCharge:
    @staticmethod
    def flown_config(tmp_path):
        return small("double_charge", double_charge_pulses(), tmp_path,
                     grid={"points_y": 64, "points_z": 64, "n_max": 4},
                     imaging={"time_of_flight_s": 3e-3,
                              "meanfield_window_s": 3e-4})

    def test_winding_two_and_minima(self, tmp_path):
        result = run_scenario(self.flown_config(tmp_path))
        assert result.summary["winding_order_p2"] == 2
        assert result.summary["l_z_order_p2"] == pytest.approx(2.0, abs=0.05)
        sep = result.summary["minima_separation_rad"]
        assert sep == pytest.approx(math.pi, abs=0.3)
        assert result.summary["pattern_xcorr_order_p2"] > 0.8
        p2 = result.summary["population_before_readout_order_p2"]
        p1_after_first = 0.18
        assert 0.6 < p2 / p1_after_first < 0.95

    def test_first_flight_is_released_before_the_readout(self, tmp_path,
                                                         monkeypatch):
        # only two radial profiles of the first flight are read again, so
        # the padded flight must not be held while the readout pulse runs
        flights, alive_at_readout = [], []
        flight = scenarios.time_of_flight
        sequence = scenarios.run_sequence

        def tracking_flight(*args, **kwargs):
            flown = flight(*args, **kwargs)
            flights.append(weakref.ref(flown))
            return flown

        def checking_sequence(*args, **kwargs):
            gc.collect()
            if flights:
                alive_at_readout.append(flights[0]() is not None)
            return sequence(*args, **kwargs)

        monkeypatch.setattr(scenarios, "time_of_flight", tracking_flight)
        monkeypatch.setattr(scenarios, "run_sequence", checking_sequence)
        run_scenario(self.flown_config(tmp_path))
        assert len(flights) == 2
        assert alive_at_readout == [False]

    def test_pre_readout_state_is_released_before_the_last_flight(
            self, tmp_path, monkeypatch):
        # once the readout pulse has run, nothing reads the state it
        # started from, so the final flight must not run beside it
        states, alive_at_flight = [], []
        flight = scenarios.time_of_flight
        sequence = scenarios.run_sequence

        def tracking_sequence(*args, **kwargs):
            state, log = sequence(*args, **kwargs)
            states.append(weakref.ref(state))
            return state, log

        def checking_flight(*args, **kwargs):
            gc.collect()
            alive_at_flight.append(states[0]() is not None)
            return flight(*args, **kwargs)

        monkeypatch.setattr(scenarios, "run_sequence", tracking_sequence)
        monkeypatch.setattr(scenarios, "time_of_flight", checking_flight)
        run_scenario(self.flown_config(tmp_path))
        assert len(states) == 2
        assert alive_at_flight == [True, False]

    def test_readout_runs_the_configured_sequence(self, tmp_path):
        # a trap-off pulse with a delay before the readout: the delay
        # follows trap_on, and the readout is the sequence's third row
        pulses = double_charge_pulses()
        pulses[1].update(trap_on=False, delay_after_s=4e-4)
        config = small("double_charge", pulses, tmp_path,
                       grid={"points_y": 64, "points_z": 64, "n_max": 4},
                       imaging={"time_of_flight_s": 0.0})
        result = run_scenario(config)
        table = (Path(result.output_dir) / "populations.tsv").read_text()
        rows = [line.split("\t") for line in table.strip().split("\n")]
        assert rows[0][0] == "pulse"
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]

        cfg = ExperimentConfig.from_mapping(config)
        grid = cfg.make_grid()
        initial = LadderState.from_single_order(
            cfg.ground_state(grid).field, cfg.n_max)
        final, _ = run_sequence(initial, cfg.pulses(grid), cfg.trap(),
                                cfg.g2d_j_m2(grid.units))
        for n in final.orders:
            assert (result.summary[f"population_order_{_tag(n)}"]
                    == final.population(n))


class TestPhaseCoherence:
    def test_slope_minus_one(self, tmp_path):
        config = small("phase_coherence", [
            vortex_pulse(),
            {"absorb": "wide", "emit": "g", "rabi_rate_rad_s": 7.0e4,
             "detuning_recoils": 4.0, "duration_s": 1.5e-5},
        ], tmp_path, study={"n_trials": 4},
            imaging={"time_of_flight_s": 0.0})
        result = run_scenario(config)
        assert result.summary["slope"] == pytest.approx(-1.0, abs=0.05)
        assert result.summary["max_residual_rad"] < math.radians(5.0)
        table = (Path(result.output_dir) / "study_table.tsv").read_text()
        lines = table.strip().split("\n")
        assert len(lines) == 5
        assert "hole_angle_rad" in lines[0].split("\t")

    def test_initial_state_is_released_before_the_trials(self, tmp_path,
                                                         monkeypatch):
        # the ground image is written before pulse 0 runs, so no trial
        # runs beside the initial state
        initial, alive_at_trial = [], []
        sequence = scenarios.run_sequence

        def tracking_sequence(state, *args, **kwargs):
            if initial:
                gc.collect()
                alive_at_trial.append(initial[0]() is not None)
            else:
                initial.append(weakref.ref(state))
            return sequence(state, *args, **kwargs)

        monkeypatch.setattr(scenarios, "run_sequence", tracking_sequence)
        run_scenario(short_config("phase_coherence", tmp_path))
        assert alive_at_trial == [False, False, False]

    def test_trials_turn_the_configured_couplings(self, tmp_path,
                                                  monkeypatch):
        # one coupling_map per configured pulse, however many trials run
        config = small("phase_coherence", [
            vortex_pulse(),
            {"absorb": "wide", "emit": "g", "rabi_rate_rad_s": 7.0e4,
             "detuning_recoils": 4.0, "duration_s": 1.5e-5},
        ], tmp_path, study={"n_trials": 3},
            imaging={"time_of_flight_s": 0.0})
        calls = []
        coupling_map = config_module.coupling_map

        def counting(*args, **kwargs):
            calls.append(args)
            return coupling_map(*args, **kwargs)

        monkeypatch.setattr(config_module, "coupling_map", counting)
        run_scenario(config)
        assert len(calls) == 2

    def test_study_row_zero_is_the_imaged_trial(self, tmp_path, monkeypatch):
        # configured phases and delays must reach every trial, so the
        # table, the summary and the written image describe one experiment
        config = small("phase_coherence", [
            vortex_pulse(delay_after_s=2e-5),
            {"absorb": "wide", "emit": "g", "rabi_rate_rad_s": 7.0e4,
             "detuning_recoils": 4.0, "duration_s": 1.5e-5,
             "relative_phase_rad": 1.1, "delay_after_s": 2e-5},
        ], tmp_path, study={"n_trials": 3, "phases_rad": [0.4, 2.5, 4.6]},
            imaging={"time_of_flight_s": 0.0})
        config["beams"]["lg"] = dict(BEAMS["lg"], phase_rad=0.7)
        pulses = []
        evolve_pulse = dynamics.evolve_pulse

        def counting(*args, **kwargs):
            pulses.append(args[1])
            return evolve_pulse(*args, **kwargs)

        monkeypatch.setattr(dynamics, "evolve_pulse", counting)
        result = run_scenario(config)
        # pulse 0 runs once for all trials, pulse 1 once per trial
        assert len(pulses) == 3 + 1

        out = Path(result.output_dir)
        row = (out / "study_table.tsv").read_text().split("\n")[1].split("\t")
        image, _ = read_pgm(str(out / "hole_image.pgm"))
        imaged = hole_angle(image, (5e-6, 12e-6))
        for angle in (float(row[3]), imaged):
            wrapped = (angle - result.summary["trial_0_hole_angle_rad"]
                       + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(wrapped) < 1e-3
        assert float(row[2]) == pytest.approx(
            result.summary["trial_0_readout_angle_rad"], abs=1e-9)


def reference_phase_trials(cfg: ExperimentConfig):
    """The phase study's per-trial loop before pulse 0 ran once: every
    trial runs the whole configured sequence with pulse 0's coupling
    turned by its phase.  Returns each trial's final state and the study."""
    grid = cfg.make_grid()
    study = cfg.data["study"]
    phases = study["phases_rad"]
    first = cfg.data["pulses"][0]
    lg = cfg.beam_spec(first["absorb"])
    emit = cfg.beam_spec(first["emit"])
    pulses = cfg.pulses(grid)
    initial = LadderState.from_single_order(cfg.ground_state(grid).field,
                                            cfg.n_max)

    states, holes, readouts = [], [], []
    for phase in phases:
        turned = replace(pulses[0], coupling=scaled_coupling(
            pulses[0].coupling, np.exp(1j * phase)))
        state, _ = run_sequence(initial, (turned,) + pulses[1:],
                                cfg.trap(), cfg.g2d_j_m2(grid.units))
        states.append(state)
        holes.append(absorption_image(state, (0, 1), grid.pitch_y_m,
                                      label="hole_image"))
        readouts.append(phase_readout_pattern(lg, emit, phase, grid)[1])
    result = phase_correlation_study(
        phases, holes, readouts,
        (study["annulus_inner_m"], study["annulus_outer_m"]))
    return states, result


class TestPhaseTrialsAgainstTheLoop:
    def test_trials_match_the_per_trial_loop(self, tmp_path, monkeypatch):
        # pulse 0 with a trap-off delay: the delay is order-diagonal, so
        # turning the imprinted state still equals turning the coupling
        config = small("phase_coherence", [
            vortex_pulse(delay_after_s=2e-5, trap_on=False),
            {"absorb": "wide", "emit": "g", "rabi_rate_rad_s": 7.0e4,
             "detuning_recoils": 4.0, "duration_s": 1.5e-5,
             "relative_phase_rad": 1.1, "delay_after_s": 2e-5},
        ], tmp_path, study={"n_trials": 3, "phases_rad": [0.4, 2.5, 4.6]},
            imaging={"time_of_flight_s": 0.0})
        config["beams"]["lg"] = dict(BEAMS["lg"], phase_rad=0.7)
        finals = []
        image = scenarios.absorption_image

        def capturing(state, *args, **kwargs):
            if kwargs.get("label") == "hole_image":
                finals.append(state)
            return image(state, *args, **kwargs)

        monkeypatch.setattr(scenarios, "absorption_image", capturing)
        result = run_scenario(config)
        states, reference = reference_phase_trials(
            ExperimentConfig.from_mapping(config))

        assert len(finals) == len(states) == 3
        assert np.array_equal(finals[0].values, states[0].values)
        for final, state in zip(finals, states):
            diff = final.values - state.values
            assert math.sqrt(float(np.sum(np.abs(diff) ** 2))
                             * state.grid.cell_area) <= 1e-12
        table = (Path(result.output_dir) / "study_table.tsv").read_text()
        rows = [line.split("\t") for line in table.strip().split("\n")]
        column = rows[0].index("hole_angle_rad")
        for row, expected in zip(rows[1:], reference.rows):
            assert float(row[column]) == pytest.approx(
                expected["hole_angle_rad"], abs=1e-9)


def reference_pattern_match(image, kind, profiles, grid):
    """The orientation scan before the closed-form fit: the analytic
    pattern rebuilt on the raster for each of 64 coarse and 17 fine
    angles, each scored by centered cross-correlation on the support
    disc.  Returns (xcorr, theta)."""
    zz, yy = np.meshgrid(grid.z_m, grid.y_m, indexing="ij")
    mask = np.hypot(yy, zz) <= scenarios._support_radius_m(image)
    measured = image.pixels[mask]

    def score(theta):
        pattern = analytic_pattern(kind, profiles, grid, theta=theta)
        da = measured - measured.mean()
        db = pattern.pixels[mask] - pattern.pixels[mask].mean()
        denom = math.sqrt(float(np.sum(da * da)) * float(np.sum(db * db)))
        if denom == 0.0:
            return 0.0
        return float(np.sum(da * db) / denom)

    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    scores = [score(t) for t in thetas]
    best = int(np.argmax(scores))
    fine = np.linspace(thetas[best] - 2.0 * math.pi / 64,
                       thetas[best] + 2.0 * math.pi / 64, 17)
    fine_scores = [score(t) for t in fine]
    k = int(np.argmax(fine_scores))
    return fine_scores[k], float(fine[k] % (2.0 * math.pi))


class TestPatternFitAgainstTheLoop:
    W_M = 30e-6

    def profiles(self, kind):
        r = np.linspace(0.0, 2e-4, 4000)
        ring = (r, (r / self.W_M) * np.exp(-(r / self.W_M) ** 2))
        flat = (r, np.exp(-(r / self.W_M) ** 2))
        return ring if kind == "counter_rotating" else (flat, ring)

    def fit(self, tmp_path, image, kind, grid):
        bundle = scenarios._Bundle(str(tmp_path / kind))
        summary = {}
        scenarios._match_pattern(bundle, summary, image, 1, kind,
                                 self.profiles(kind), grid)
        assert bundle.names == [f"pattern_{kind}.pgm",
                                f"pattern_{kind}.pgm.meta"]
        assert list(summary) == ["pattern_xcorr_order_p1",
                                 "pattern_theta_rad"]
        return summary["pattern_xcorr_order_p1"], summary["pattern_theta_rad"]

    @pytest.mark.parametrize("kind", PATTERN_KINDS)
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_fit_matches_the_scan(self, tmp_path, grid128, rng, kind, noise):
        pixels = analytic_pattern(kind, self.profiles(kind), grid128,
                                  theta=1.0).pixels
        pixels = np.maximum(pixels + rng.normal(0.0, noise, pixels.shape),
                            0.0)
        image = ImagePlane(pixels, grid128.pitch_y_m)
        xcorr, theta = self.fit(tmp_path, image, kind, grid128)
        ref_xcorr, ref_theta = reference_pattern_match(
            image, kind, self.profiles(kind), grid128)
        assert theta == ref_theta
        assert abs(xcorr - ref_xcorr) <= 1e-12
        if noise == 0.0:
            assert abs(theta - 1.0) <= math.pi / 128
            assert xcorr > 0.999

    def test_flat_image_scores_zero(self, tmp_path, grid128):
        image = ImagePlane(np.ones(grid128.shape), grid128.pitch_y_m)
        kind = "doubly_vs_nonrot"
        fitted = self.fit(tmp_path, image, kind, grid128)
        assert fitted == reference_pattern_match(
            image, kind, self.profiles(kind), grid128)
        assert fitted[0] == 0.0
