"""Benchmark runner for ramanvortex.

One workload, with the arguments the command in BENCHMARK.json takes:

    python3 perfbench/run.py --workload vortex_256 --seed 1 --seconds 36 \
        --trace 0

Every workload, untraced for each seed and traced once, printing each
metric with its unit, the seeds' spread and the total of failed runs
against runs attempted (optionally saved as a BENCH_<n>.json result set):

    python3 perfbench/run.py --all --seeds 1 2 3 \
        [--write perfbench/results/BENCH_2.json]

Each scenario runs in a fresh single-threaded worker process (closed loop,
one client, one scenario at a time).  With ``--trace 0`` full scenarios are
repeated while the next one is predicted to end within ``--seconds``
(at least one), then set-up-only workers bring the set-up samples to at
least three, and to at most seven while they fit; the end-to-end metrics
are medians over those workers (``result_dev``: the largest).  With
``--trace 1`` each round is an untraced and a traced run of the same
config; the per-layer metrics come from the traced run's spans and the
tracing overhead is traced minus untraced ``run_s``.  ``--smoke`` swaps in
tiny grids and skips the physics gates, for the benchmark's own tests.

The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".bench_runs")
REFERENCE = os.path.join(HERE, "reference.json")
SMOKE_REFERENCE = os.path.join(HERE, "reference_smoke.json")
# Set-up samples per run: at least SETUP_SAMPLES, then more while they fit.
SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 7
# A run must end within 180 s; workers are stopped with a margin.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _environment(versions: dict) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": sys.version.split()[0],
            **versions,
            **{var: "1" for var in THREAD_VARS}}


class _BenchRun:
    """Workers of one benchmark run, with their records and failures."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.start = time.monotonic()
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.spans_path = os.path.join(RUNS_DIR, f"{workload}.spans.jsonl")
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, mode: str) -> dict | None:
        """Run one worker; returns its record, or None if it failed."""
        self.attempted += 1
        os.makedirs(RUNS_DIR, exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=RUNS_DIR)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               self.workload, str(self.seed), mode, out_dir]
        if self.smoke:
            cmd.append("--smoke")
        began = time.monotonic()
        record = None
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            if proc.returncode == 0:
                record = json.loads(proc.stdout.strip().splitlines()[-1])
                record["wall_s"] = time.monotonic() - began
                if mode == "traced":
                    shutil.copyfile(os.path.join(out_dir, "spans.jsonl"),
                                    self.spans_path)
            else:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                self._fail(f"{mode} worker exited {proc.returncode}: "
                           f"{tail[0]}")
        except subprocess.TimeoutExpired:
            self._fail(f"{mode} worker passed the {HARD_LIMIT_S:.0f} s limit")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if record is not None and "summary" in record and not self.smoke:
            misses = workloads.gate(self.workload, record["summary"])
            if misses:
                self._fail("gate: " + "; ".join(misses))
                record = None
        if record is not None:
            self.records.append(record)
        return record

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"failed run: {message}", file=sys.stderr)

    def setup_cost(self) -> float:
        """Predicted wall time of one set-up-only worker."""
        return self.records[-1]["setup_s"] + 0.2

    def fits(self, seconds: float, cost: float) -> bool:
        return self.elapsed() + cost <= seconds

    def of_mode(self, mode: str) -> list[dict]:
        return [r for r in self.records if r["mode"] == mode]


def _reference(smoke: bool, workload: str) -> dict:
    with open(SMOKE_REFERENCE if smoke else REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _end_to_end(bench: _BenchRun, seconds: float) -> dict:
    last = bench.worker("full")
    while last is not None:
        # keep time for the set-up-only runs still owed after the next one
        owed = max(0, SETUP_SAMPLES - len(bench.records) - 1)
        if not bench.fits(seconds,
                            last["wall_s"] + owed * bench.setup_cost()):
            break
        last = bench.worker("full")
    runs = bench.of_mode("full")
    if not runs:
        raise BenchError("no scenario run completed: "
                         + "; ".join(bench.errors))
    while bench.failed == 0 and (
            len(bench.records) < SETUP_SAMPLES
            or (len(bench.records) < MAX_SETUP_SAMPLES
                and bench.fits(seconds, bench.setup_cost()))):
        bench.worker("setup")
    reference = _reference(bench.smoke, bench.workload)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in bench.records),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "result_dev": max(workloads.result_dev(r["summary"], reference)
                          for r in runs),
    }


def _per_layer(bench: _BenchRun, seconds: float) -> dict:
    layers: list[dict] = []
    while True:
        plain = bench.worker("full")
        traced = bench.worker("traced")
        if plain is None or traced is None:
            break
        spans = tracer.read_spans(bench.spans_path)
        tracer.check_nesting(spans)
        layers.append(tracer.layer_metrics(spans))
        if not bench.fits(seconds, plain["wall_s"] + traced["wall_s"]):
            break
    if not layers:
        raise BenchError("no traced run completed: "
                         + "; ".join(bench.errors))
    metrics = {key: statistics.median(m[key] for m in layers)
               for key in layers[0]}
    untraced = statistics.median(r["run_s"]
                                 for r in bench.of_mode("full"))
    metrics["trace.untraced_run_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run: the result object and the library
    versions the workers saw."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ramanvortex",
                                       "__init__.py")):
        raise BenchError(f"no ramanvortex sources under {ROOT}/src")
    spec = _spec()
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    bench = _BenchRun(workload, seed, smoke)
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = (_per_layer if trace else _end_to_end)(bench, seconds)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }, bench.records[0]["versions"]


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None}


def _print_metrics(label: str, result: dict) -> None:
    print(f"{label}: {result['failed']} of {result['attempted']} runs "
          f"failed")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")


def _run_all(args) -> int:
    """Every workload: the untraced run for each seed, then one traced run
    on the first seed; prints each metric and the seeds' spread."""
    results = {"seconds": args.seconds, "workloads": {}}
    attempted = failed = 0
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in args.seeds:
            result, versions = measure(workload, seed, args.seconds, False,
                                       smoke=args.smoke)
            runs.append({"seed": seed, **result})
            _print_metrics(f"{workload} seed {seed}", result)
        traced, _ = measure(workload, args.seeds[0], args.seconds, True,
                            smoke=args.smoke)
        _print_metrics(f"{workload} seed {args.seeds[0]} traced", traced)
        entry = {"runs": runs, "traced": traced}
        if len(runs) > 1:
            entry["spread"] = {
                name: _spread([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]}
            for name, row in entry["spread"].items():
                print(f"  spread {name:23s} median {row['median']:.6g} "
                      f"IQR/median {row['iqr_over_median']:.4f}")
        results["workloads"][workload] = entry
        for result in runs + [traced]:
            attempted += result["attempted"]
            failed += result["failed"]
    results["environment"] = _environment(versions)
    print(f"failed runs: {failed} of {attempted} attempted")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, no physics gates")
    parser.add_argument("--all", action="store_true",
                        help="run every workload for each of --seeds")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--write", help="save the --all result set here")
    args = parser.parse_args(argv)
    try:
        if args.all:
            return _run_all(args)
        if args.workload is None:
            parser.error("--workload or --all is required")
        result, versions = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), smoke=args.smoke)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": _environment(versions)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
