"""Span recording around the package's layer boundaries, from outside it.

The benchmark does not instrument ``src/``.  Instead ``install`` wraps a
fixed list of module-level functions and methods of ``ramanvortex`` and
swaps every reference to the original function object in every loaded
``ramanvortex`` module for the wrapper.  That matters because the modules
import each other's functions by name (``dynamics``, ``imaging`` and
``condensate`` hold their own ``_fft2_stack``; ``scenarios`` and
``diagnostics`` hold ``run_sequence``, ``time_of_flight``,
``absorption_image`` and ``coupling_map``): patching only the defining
module would miss those calls.

Spans are kept in memory as (id, name, start, end, parent, run_id, value)
and written out once, when the run ends.  ``layer_metrics`` turns a span
list into the benchmark's per-layer metrics; it needs only the standard
library, so the parent process can call it without numpy.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# (module, attribute) pairs to wrap; "Class.method" names a method.
WRAPPED = (
    ("config", "ExperimentConfig.from_mapping"),
    ("condensate", "thomas_fermi_profile"),
    ("condensate", "relax_ground_state"),
    ("grid", "_fft2_stack"),
    ("grid", "_ifft2_stack"),
    ("grid", "save_field"),
    ("optics", "coupling_map"),
    ("optics", "phase_readout_pattern"),
    ("dynamics", "run_sequence"),
    ("dynamics", "evolve_pulse"),
    ("dynamics", "_LadderPropagator.__init__"),
    ("dynamics", "_LadderPropagator.apply"),
    ("imaging", "time_of_flight"),
    ("imaging", "absorption_image"),
    ("imaging", "analytic_pattern"),
    ("imaging", "radial_profile"),
    ("imaging", "write_pgm"),
    ("diagnostics", "phase_correlation_study"),
    ("diagnostics", "vortex_report"),
    ("diagnostics", "oam_expectation"),
    ("diagnostics", "hole_angle"),
)

# Root spans opened by the worker itself, not by a wrapped call.
SETUP = "bench.setup"
RUN = "bench.run"

FFT = ("grid._fft2_stack", "grid._ifft2_stack")
PULSE = "dynamics.evolve_pulse"
APPLY = "dynamics._LadderPropagator.apply"
LADDER_SETUP = "dynamics._LadderPropagator.__init__"
TOF = "imaging.time_of_flight"
ANALYSIS = ("diagnostics.vortex_report", "diagnostics.oam_expectation",
            "diagnostics.hole_angle")
GROUND = ("condensate.thomas_fermi_profile", "condensate.relax_ground_state")


def _file_bytes(path) -> int:
    path = str(path)
    return os.path.getsize(path) + os.path.getsize(path + ".meta")


# Extra quantity recorded with a span: simulated pulse length in seconds,
# or the bytes an artifact writer put on disk (file plus sidecar).
_VALUE = {
    "dynamics.evolve_pulse": lambda args: args[1].duration_s,
    "imaging.write_pgm": lambda args: _file_bytes(args[1]),
    "grid.save_field": lambda args: _file_bytes(args[1]),
}


class Tracer:
    """In-memory span stack for one single-threaded worker process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter() if start is None
                           else start, None, parent, self.run_id, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, end: float | None = None) -> None:
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")
        self.spans[sid][3] = time.perf_counter() if end is None else end

    def wrap(self, name: str, func):
        value = _VALUE.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(sid)
            if value is not None:
                self.spans[sid][6] = value(args)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _swap_everywhere(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ramanvortex" and not mod_name.startswith(
                "ramanvortex."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every WRAPPED callable; call after ``import ramanvortex``."""
    for mod_name, qualname in WRAPPED:
        module = sys.modules[f"ramanvortex.{mod_name}"]
        name = f"{mod_name}.{qualname}"
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name,
                                                           raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
        else:
            original = getattr(module, qualname)
            _swap_everywhere(original, tracer.wrap(name, original))


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_nesting(spans: list[list]) -> None:
    """Raise ValueError unless every span is closed, lies inside its
    parent, and does not overlap an earlier sibling."""
    last_end: dict = {}
    for sid, name, start, end, parent, _, _ in spans:
        if end is None or end < start:
            raise ValueError(f"span {sid} ({name}) is not closed")
        if parent is not None:
            p = spans[parent]
            if start < p[2] or end > p[3]:
                raise ValueError(f"span {sid} ({name}) leaves its parent "
                                 f"{parent} ({p[1]})")
        if start < last_end.get(parent, -float("inf")):
            raise ValueError(f"span {sid} ({name}) overlaps a sibling")
        last_end[parent] = end


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it.

    For n > 10 samples that is the 11th largest; with ten or fewer there is
    no such percentile and the largest is returned.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _ms_stats(durations: list[float]) -> tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    ms = [1e3 * d for d in durations]
    return statistics.median(ms), tail(ms)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name.

    Totals are summed over spans; an FFT is charged to the dynamics or the
    imaging layer by its nearest pulse, TOF or relaxation ancestor.  Self
    times are a span's duration minus its children's.
    """
    dur = [s[3] - s[2] for s in spans]
    children: dict = {}
    for s in spans:
        children.setdefault(s[4], []).append(s[0])

    def ancestor(sid: int, names) -> str | None:
        parent = spans[sid][4]
        while parent is not None:
            if spans[parent][1] in names:
                return spans[parent][1]
            parent = spans[parent][4]
        return None

    def ids(*names) -> list[int]:
        return [s[0] for s in spans if s[1] in names]

    def total(sids) -> float:
        return float(sum(dur[i] for i in sids))

    def outermost(names) -> list[int]:
        return [i for i in ids(*names) if ancestor(i, names) is None]

    owners = (PULSE, TOF, "condensate.relax_ground_state")
    fft_owner = {i: ancestor(i, owners) for i in ids(*FFT)}
    dyn_fft = [i for i, o in fft_owner.items() if o == PULSE]
    tof_fft = [i for i, o in fft_owner.items() if o == TOF]
    relax_fft = [i for i, o in fft_owner.items()
                 if o == "condensate.relax_ground_state"]
    pulses = ids(PULSE)
    steps = ids(APPLY)
    pulse_s = total(pulses)
    simulated_us = 1e6 * sum(spans[i][6] for i in pulses)
    apply_ms = _ms_stats([dur[i] for i in steps])
    fft_ms = _ms_stats([dur[i] for i in dyn_fft])
    tof_fft_ms = _ms_stats([dur[i] for i in tof_fft])
    (run_id,) = ids(RUN)
    run_s = dur[run_id]
    top = children.get(run_id, [])
    pgm = ids("imaging.write_pgm")
    fields = ids("grid.save_field")
    return {
        "dynamics.pulse_s": pulse_s,
        "dynamics.pulse_calls": len(pulses),
        "dynamics.steps": len(steps),
        "dynamics.step_ms": 1e3 * pulse_s / len(steps) if steps else 0.0,
        "dynamics.sim_us_per_s": simulated_us / pulse_s if pulse_s else 0.0,
        "dynamics.ladder_apply_s": total(steps),
        "dynamics.ladder_apply_ms": apply_ms[0],
        "dynamics.ladder_apply_ms_tail": apply_ms[1],
        "dynamics.ladder_setup_s": total(ids(LADDER_SETUP)),
        "dynamics.fft_s": total(dyn_fft),
        "dynamics.fft_ms": fft_ms[0],
        "dynamics.fft_ms_tail": fft_ms[1],
        "dynamics.fft_calls": len(dyn_fft),
        "dynamics.self_s": pulse_s - total(
            c for i in pulses for c in children.get(i, [])),
        "imaging.tof_s": total(ids(TOF)),
        "imaging.tof_fft_calls": len(tof_fft),
        "imaging.tof_fft_ms": tof_fft_ms[0],
        "imaging.tof_fft_ms_tail": tof_fft_ms[1],
        "imaging.pattern_s": total(ids("imaging.analytic_pattern")),
        "imaging.pattern_calls": len(ids("imaging.analytic_pattern")),
        "imaging.absorption_s": total(ids("imaging.absorption_image")),
        "imaging.pgm_s": total(pgm),
        "imaging.pgm_bytes": sum(spans[i][6] for i in pgm),
        "grid.field_s": total(fields),
        "grid.field_bytes": sum(spans[i][6] for i in fields),
        "condensate.ground_s": total(ids(*GROUND)),
        "condensate.fft_calls": len(relax_fft),
        "optics.coupling_s": total(ids("optics.coupling_map")),
        "optics.coupling_calls": len(ids("optics.coupling_map")),
        "diagnostics.study_s": total(ids(
            "diagnostics.phase_correlation_study")),
        "diagnostics.analysis_s": total(outermost(ANALYSIS)),
        "config.load_s": total(ids("config.ExperimentConfig.from_mapping")),
        "scenarios.self_s": run_s - total(top),
        "trace.children_s": total(top),
        "trace.spans": len(spans),
        "trace.run_s": run_s,
    }
