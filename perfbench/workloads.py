"""The benchmark's workloads: generated configs and correctness gates.

Each workload is defined here rather than read from ``configs/`` so that a
later edit to a preset cannot silently change what is measured.  Each
keeps its preset's scenario, grid and ladder size, but the pulses are
shorter and stronger, the TOF mean-field window shorter and the phase
scan has fewer trials, so that several scenarios fit one benchmark run
(see README.md in this directory).

The seed picks a global ladder phase alpha and, for the phase scan, a
rotation of the trial list.  alpha goes onto ``beams.lg.phase_rad``; every
pulse that does not absorb from ``lg`` gets it on ``relative_phase_rad``
instead, so every pulse's coupling turns by the same alpha.  That maps
psi_n to e^{i n alpha} psi_n exactly and leaves cost, populations,
windings, images, slope, separation and xcorr unchanged up to rounding.
The phase scan's second pulse also takes the imaged trial's phase, so the
imaged trial keeps its relative pulse phase under the list rotation.
"""

from __future__ import annotations

import math
import random

BEAMS = {
    "lg": {"kind": "lg", "waist_m": 8.5e-5, "winding": 1},
    "g": {"kind": "gaussian", "waist_m": 1.75e-4},
    "top": {"kind": "gaussian", "waist_m": 2.0e-4},
    "wide": {"kind": "gaussian", "waist_m": 2.0e-4},
}

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("vortex_256", "phase_scan_64", "double_charge_128")

# Smoke mode: same scenario shapes on tiny grids, for the benchmark's own
# tests.  Physics gates are not checked there.
SMOKE_POINTS = 32


def _pulse(absorb, emit, rate, detuning, duration, phase=0.0):
    return {"absorb": absorb, "emit": emit, "rabi_rate_rad_s": rate,
            "detuning_recoils": detuning, "duration_s": duration,
            "relative_phase_rad": phase}


def _grid(points: int, n_max: int, smoke: bool) -> dict:
    if smoke:
        points = SMOKE_POINTS
    return {"points_y": points, "points_z": points, "n_max": n_max}


def build_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The raw config one run of workload `name` hands to run_scenario."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; one of "
                       f"{', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    lg = dict(BEAMS["lg"], phase_rad=alpha)
    cfg = {"schema_version": 1, "seed": seed}
    if name == "vortex_256":
        cfg.update(
            scenario="single_vortex",
            grid=_grid(256, 3, smoke),
            beams={"lg": lg, "g": BEAMS["g"]},
            pulses=[_pulse("lg", "g", 2.19e5, 4.0, 1.0e-5)],
            imaging={"meanfield_window_s": 4.0e-5})
    elif name == "phase_scan_64":
        # Every trial costs the same, so 3 trials (the preset runs 18)
        # keep the layer shares and let about eight scenarios fit a run.
        n_trials = 3
        shift = rng.randrange(n_trials)
        phases = [2.0 * math.pi * ((k + shift) % n_trials) / n_trials
                  for k in range(n_trials)]
        cfg.update(
            scenario="phase_coherence",
            grid=_grid(64, 3, smoke),
            beams={"lg": lg, "g": BEAMS["g"], "top": BEAMS["top"]},
            pulses=[_pulse("lg", "g", 7.3e4, 4.0, 3.0e-5),
                    _pulse("top", "g", 7.0e4, 4.0, 1.5e-5,
                           phase=alpha + phases[0])],
            study={"n_trials": n_trials, "phases_rad": phases})
    else:
        cfg.update(
            scenario="double_charge",
            grid=_grid(128, 4, smoke),
            condensate={"profile": "relaxed"},
            beams={"lg": lg, "g": BEAMS["g"], "wide": BEAMS["wide"]},
            pulses=[_pulse("lg", "g", 2.76e5, 4.0, 7.5e-6),
                    _pulse("lg", "g", 2.72e5, 12.0, 1.75e-5),
                    _pulse("wide", "wide", 3.2e5, 8.0, 1.0e-5,
                           phase=alpha)],
            imaging={"meanfield_window_s": 1.0e-4})
    return cfg


def gate(name: str, summary: dict) -> list[str]:
    """Acceptance bounds a full-size run must meet; returns the misses."""
    misses = []
    if name == "vortex_256":
        if summary.get("winding_order_p1") != 1:
            misses.append(f"winding_order_p1 = "
                          f"{summary.get('winding_order_p1')} (want 1)")
    elif name == "phase_scan_64":
        slope = summary["slope"]
        worst = summary["max_residual_rad"]
        if not abs(slope + 1.0) <= 0.05:
            misses.append(f"slope {slope:.4f} (want -1 +/- 0.05)")
        if not worst < math.radians(5.0):
            misses.append(f"max residual {worst:.4f} rad (limit 5 deg)")
    else:
        sep = summary.get("minima_separation_rad", float("nan"))
        xcorr = summary.get("pattern_xcorr_order_p2", float("nan"))
        if not abs(sep - math.pi) <= 0.2:
            misses.append(f"minima separation {sep:.4f} rad (want pi +/- "
                          f"0.2)")
        if not xcorr > 0.85:
            misses.append(f"pattern xcorr {xcorr:.4f} (limit 0.85)")
        if summary.get("winding_order_p2") != 2:
            misses.append(f"winding_order_p2 = "
                          f"{summary.get('winding_order_p2')} (want 2)")
    return misses


def populations(summary: dict) -> dict[str, float]:
    return {k: v for k, v in summary.items()
            if k.startswith("population_order_")}


def result_dev(summary: dict, reference: dict[str, float]) -> float:
    """Largest |population_order_* - reference| over the reference keys."""
    pops = populations(summary)
    return max(abs(pops[k] - v) for k, v in reference.items())
