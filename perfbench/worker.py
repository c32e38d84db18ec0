"""One benchmark run of one scenario, in a fresh single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUT_DIR [--smoke]

MODE is ``full`` (the whole scenario), ``setup`` (stop after the ground
state) or ``traced`` (the whole scenario with layer spans, written to
OUT_DIR/spans.jsonl).  The last stdout line is one JSON record.  The clock
starts before numpy or ramanvortex is imported, so set-up time covers the
imports.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# BLAS and OpenMP pools must be pinned before numpy loads them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


class _SetupDone(Exception):
    """Raised from the ground-state hook to end a set-up-only run."""


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    from ramanvortex.grid import fft_workers
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "fft_workers": fft_workers()}


def main(argv: list[str]) -> dict:
    name, seed, mode, out_dir = argv[:4]
    smoke = "--smoke" in argv[4:]
    config = workloads.build_config(name, int(seed), smoke=smoke)
    trace = tracer.Tracer(f"{name}-{seed}-{os.path.basename(out_dir)}")
    setup_span = trace.open(tracer.SETUP, start=T_START)

    import ramanvortex
    from ramanvortex.config import ExperimentConfig
    if not os.path.abspath(ramanvortex.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"imported {ramanvortex.__file__}, not the "
                           f"checkout's src/")
    if mode == "traced":
        tracer.install(trace)

    marks = {}
    ground_state = ExperimentConfig.ground_state

    def ground_state_hook(self, grid):
        ground = ground_state(self, grid)
        marks["setup_end"] = time.perf_counter()
        trace.close(setup_span, end=marks["setup_end"])
        if mode == "setup":
            raise _SetupDone
        marks["run_span"] = trace.open(tracer.RUN, start=marks["setup_end"])
        return ground

    ExperimentConfig.ground_state = ground_state_hook
    record = {"mode": mode}
    try:
        result = ramanvortex.run_scenario(config, output_dir=out_dir)
    except _SetupDone:
        pass
    else:
        end = time.perf_counter()
        trace.close(marks["run_span"], end=end)
        record["run_s"] = end - marks["setup_end"]
        record["summary"] = result.summary
    record["setup_s"] = marks["setup_end"] - T_START
    record["versions"] = _versions()
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss * 1024 / 1e6)
    if mode == "traced":
        trace.write(os.path.join(out_dir, "spans.jsonl"))
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
