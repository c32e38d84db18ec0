"""Regenerate the references that ``result_dev`` is measured against.

    python3 perfbench/make_reference.py

Each workload (seed 0, whose inputs differ from any other seed's only by an
exact symmetry) is run once with the pulse time step cut by REFINE: both
limits that can set it, the step cap and the largest split phase per step,
are divided.  The Strang splitting is second order, so the stored
populations carry about 1/REFINE^2 of the error of a run at the program's
own step, and ``result_dev`` measures the program's discretisation error
rather than reading rounding noise.  The script overwrites reference.json and
reference_smoke.json in this directory.
"""

import json
import os
import shutil
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from ramanvortex import dynamics, run_scenario  # noqa: E402

REFINE = 4


def reference(smoke: bool) -> dict:
    refs = {}
    runs = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    for name in workloads.WORKLOADS:
        out = tempfile.mkdtemp(prefix="reference-", dir=runs)
        try:
            result = run_scenario(workloads.build_config(name, 0, smoke),
                                  output_dir=out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        refs[name] = workloads.populations(result.summary)
        print(name, "smoke" if smoke else "full", refs[name], flush=True)
    return refs


def main() -> None:
    dynamics.MAX_INTERNAL_STEP /= REFINE
    dynamics.MAX_PHASE_PER_STEP /= REFINE
    for smoke, file_name in ((True, "reference_smoke.json"),
                             (False, "reference.json")):
        with open(os.path.join(HERE, file_name), "w",
                  encoding="utf-8") as fh:
            json.dump(reference(smoke), fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
