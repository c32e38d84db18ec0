"""Smoke tests of the benchmark itself (tiny grids, no physics gates).

    python3 -m pytest -q perfbench

Each workload runs in seconds with ``--smoke``; the tests check that every
metric BENCHMARK.json names is printed with its unit, that the traced spans
nest and account for the traced run, and that the benchmark refuses to
report without the program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    if trace:
        spans = tracer.read_spans(os.path.join(
            ROOT, ".bench_runs", f"{workload}.spans.jsonl"))
        tracer.check_nesting(spans)
        layers = tracer.layer_metrics(spans)
        assert layers["trace.children_s"] + layers["scenarios.self_s"] \
            == pytest.approx(layers["trace.run_s"], rel=1e-9)
        assert layers["dynamics.steps"] > 0


def test_check_nesting_rejects_a_child_outside_its_parent():
    spans = [[0, "bench.run", 0.0, 1.0, None, "r", None],
             [1, "dynamics.evolve_pulse", 0.5, 1.5, 0, "r", 1e-5]]
    with pytest.raises(ValueError):
        tracer.check_nesting(spans)


def test_tail_is_the_eleventh_largest_sample():
    assert tracer.tail(list(range(100))) == 89
    assert tracer.tail([3.0, 1.0]) == 3.0


def test_seed_changes_only_symmetric_phases():
    for name in workloads.WORKLOADS:
        a = workloads.build_config(name, 1)
        b = workloads.build_config(name, 2)
        assert a == workloads.build_config(name, 1)
        assert a != b
        assert a["grid"] == b["grid"]
        assert [p["duration_s"] for p in a["pulses"]] == \
            [p["duration_s"] for p in b["pulses"]]


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "vortex_256", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
