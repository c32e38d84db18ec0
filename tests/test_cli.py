"""CLI behaviour: exit codes, the validate echo, and a small run."""

import json
from pathlib import Path

import pytest

from ramanvortex.cli import main

BEAMS = {
    "lg": {"kind": "lg", "waist_m": 85e-6, "winding": 1},
    "g": {"kind": "gaussian", "waist_m": 175e-6},
}


def write_config(path: Path, **overrides) -> str:
    data = {
        "schema_version": 1,
        "scenario": "custom",
        "output_dir": str(path.parent / "out"),
        "grid": {"points_y": 64, "points_z": 64},
        "beams": dict(BEAMS),
        "pulses": [],
        "imaging": {"time_of_flight_s": 0.0},
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    def test_clean_run_returns_zero(self, tmp_path, capsys):
        config = write_config(tmp_path / "ok.json")
        assert run_cli(["run", "-q", config]) == 0
        assert (tmp_path / "out" / "summary.tsv").exists()

    def test_schema_problem_exits_2_and_lists_problems(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json",
                              grid={"points_y": 64, "points_z": 64,
                                    "n_max": 99},
                              seed="zero")
        assert run_cli(["run", config]) == 2
        err = capsys.readouterr().err
        assert "grid.n_max" in err
        assert "seed" in err

    def test_unreadable_config_exits_4(self, tmp_path, capsys):
        assert run_cli(["run", str(tmp_path / "missing.json")]) == 4

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        config = write_config(tmp_path / "ok.json",
                              output_dir=str(blocker / "out"))
        assert run_cli(["run", "-q", config]) == 4

    def test_truncation_guard_exits_3_with_guard_name(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "guard.json",
            grid={"points_y": 64, "points_z": 64, "n_max": 1},
            pulses=[{"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 7.3e4,
                     "detuning_recoils": 4.0, "duration_s": 3.0e-5}])
        assert run_cli(["run", "-q", config]) == 3
        assert "TruncationError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_retired_threads_flag_exits_2(self, tmp_path, capsys, command):
        # numpy's FFT runs on one thread, so there is no worker count to set
        config = write_config(tmp_path / "ok.json")
        assert run_cli([command, "--threads", "2", config]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestValidate:
    def test_echo_is_fully_defaulted_json(self, tmp_path, capsys):
        config = write_config(tmp_path / "ok.json")
        assert run_cli(["validate", config]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["seed"] == 0
        assert echo["atom"]["mass_kg"] == pytest.approx(3.8175e-26)
        assert echo["imaging"]["pad_factor"] == 2.0

    def test_quiet_suppresses_echo(self, tmp_path, capsys):
        config = write_config(tmp_path / "ok.json")
        assert run_cli(["validate", "-q", config]) == 0
        assert capsys.readouterr().out == ""

    def test_non_finite_study_phase_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "nan.json",
                              study={"n_trials": 3,
                                     "phases_rad": [float("nan"), 1.0, 2.0]})
        assert run_cli(["validate", config]) == 2
        assert "study.phases_rad[0]: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_constant_study_phases_exit_2(self, tmp_path, capsys, command):
        config = write_config(tmp_path / "flat.json",
                              study={"n_trials": 3,
                                     "phases_rad": [1, 1, 1]})
        assert run_cli([command, config]) == 2
        assert "two distinct phases" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["validate", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestSweep:
    def test_rejects_non_sweep_scenario(self, tmp_path, capsys):
        config = write_config(tmp_path / "ok.json")
        assert run_cli(["sweep", "-q", config]) == 2
        assert "resonance_sweep" in capsys.readouterr().err

    def test_runs_a_small_sweep(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "sweep.json",
            scenario="resonance_sweep",
            pulses=[{"absorb": "lg", "emit": "g", "rabi_rate_rad_s": 7.3e4,
                     "detuning_recoils": 4.0, "duration_s": 2.0e-5}],
            sweep={"detuning_recoils_start": 3.0,
                   "detuning_recoils_stop": 5.0, "points": 3})
        assert run_cli(["sweep", config]) == 0
        out = capsys.readouterr().out
        assert "swept 3 detunings" in out
        assert (tmp_path / "out" / "sweep_table.tsv").exists()

    def test_output_dir_override(self, tmp_path, capsys):
        config = write_config(tmp_path / "ok.json")
        override = tmp_path / "elsewhere"
        assert run_cli(["run", "-q", config, "-o", str(override)]) == 0
        assert (override / "summary.tsv").exists()
        assert not (tmp_path / "out").exists()
