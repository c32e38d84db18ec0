"""Scenario runner: one validated config in, one artifact bundle out.

Each scenario prepares the condensate, applies its pulse sequence, and
writes a deterministic bundle into the output directory: 16-bit PGM images
with text sidecars, delimited tables (per-pulse populations, study and
sweep tables), binary field dumps of the populated orders, the normalized
config echo, and a key/value machine summary.  With a fixed config the
bundle is bit-identical across runs, checked run to run and at 1 and 2
BLAS threads.  Every scenario starts from the prepared ground state on
order 0 and writes its image, ``ground_density.pgm``, first after the
config echo; ``run_scenario`` writes the summary's six-key header and the
scenario adds its own keys after it.  The pulses come from
``ExperimentConfig.pulses``, built once when the run is prepared; the
sweep and the phase study vary that sequence rather than rebuilding
pulses.

Scenario shapes:
  single_vortex    pulse sequence, vortex diagnostics on order +1, TOF.
  counter_rotating sequence ending in the structureless mixer; the order
                   +1 image is compared against the analytic two-lobe
                   pattern built from its own radial profile.
  phase_coherence  the configured two-pulse sequence once per study phase,
                   pulse 0's coupling turned by the phase (a phase on the
                   imprinting beam), the optical readout taken at the same
                   relative phase; each trial's in-trap hole angle is
                   fitted against its phase, and trial 0's final state
                   gives the images and populations.  Pulse 0 and its
                   delay run once, at trial 0's phase phi_0; trial k
                   starts pulse 1 from that state with order n turned by
                   e^{i n (phi_k - phi_0)}.
  double_charge    vortex diagnostics on order +2 taken before the final
                   pulse (the interference readout), and a first flight
                   reduced to its images and the radial profiles of orders
                   0 and +2 before the readout runs; then the readout and
                   the comparison of its flight against the two-profile
                   pattern.
  resonance_sweep  first-pulse detuning swept across sweep.*, one point
                   per isolated subdirectory, no TOF.
  custom           generic pipeline: whatever the sequence produces is
                   diagnosed and imaged; an empty sequence is the identity
                   and reproduces the prepared ground state.
"""

from __future__ import annotations

import logging
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .condensate import GroundState, TrapSpec
from .config import ExperimentConfig, dumps
from .diagnostics import (oam_expectation, phase_correlation_study,
                          vortex_report)
from .dynamics import PulseSpec, run_sequence
from .errors import SimulationError
from .grid import (Grid2D, LadderState, save_field, write_sidecar,
                   _fft2_stack, _high_k_share)
from .imaging import (_RESOLVED_SHARE_LIMIT, ImagePlane, absorption_image,
                      analytic_pattern, pattern_terms, radial_profile,
                      time_of_flight, write_pgm)
from .optics import phase_readout_pattern, scaled_coupling
from .units import UnitSystem

logger = logging.getLogger("ramanvortex.scenarios")

IMAGE_POPULATION_FLOOR = 0.01
REPORT_POPULATION_FLOOR = 0.05
DUMP_POPULATION_FLOOR = 1e-3
PATTERN_SUPPORT_FLOOR = 0.01


def order_tag(n: int) -> str:
    """Filesystem-safe order label: -2 -> m2, 0 -> 0, +1 -> p1."""
    if n == 0:
        return "0"
    return f"p{n}" if n > 0 else f"m{-n}"


@dataclass(frozen=True)
class ScenarioResult:
    """Machine summary plus the relative paths written under output_dir."""

    scenario: str
    output_dir: str
    summary: dict
    artifacts: tuple[str, ...]


class _Bundle:
    """Artifact writer that remembers what it wrote, in order."""

    def __init__(self, output_dir: str):
        self.output_dir = output_dir
        self.names: list[str] = []
        os.makedirs(output_dir, exist_ok=True)

    def path(self, name: str) -> str:
        sub = os.path.dirname(name)
        if sub:
            os.makedirs(os.path.join(self.output_dir, sub), exist_ok=True)
        return os.path.join(self.output_dir, name)

    def add_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        self.names.append(name)

    def add_sidecar(self, name: str, meta: Mapping) -> None:
        write_sidecar(self.path(name), meta)
        self.names.append(name + ".meta")

    def add_image(self, name: str, image: ImagePlane) -> None:
        write_pgm(image, self.path(name))
        self.names += [name, name + ".meta"]

    def add_field(self, name: str, field, units: UnitSystem,
                  component_index: int, label: str) -> None:
        save_field(field, self.path(name), units,
                   component_index=component_index, label=label)
        self.names += [name, name + ".meta"]


@dataclass(frozen=True)
class _Context:
    cfg: ExperimentConfig
    units: UnitSystem
    grid: Grid2D
    trap: TrapSpec
    g2d_j_m2: float
    ground: GroundState
    pulses: tuple[PulseSpec, ...]

    @property
    def imaging(self) -> Mapping:
        return self.cfg.data["imaging"]

    def initial_state(self) -> LadderState:
        return LadderState.from_single_order(self.ground.field,
                                             self.cfg.n_max)

    def report_loop_radius_m(self) -> float:
        # inside the transferred annulus for both charge 1 and charge 2
        return 0.4 * self.ground.tf_radii_m[0]

    def display_image(self, state: LadderState, orders, label: str
                      ) -> ImagePlane:
        im = self.imaging
        return absorption_image(state, orders, im["pixel_m"],
                                blur_sigma_m=im["blur_sigma_m"],
                                noise_rms=im["noise_rms"],
                                seed=self.cfg.seed, label=label)

    def analysis_image(self, state: LadderState, orders, label: str
                       ) -> ImagePlane:
        # grid-pitch raster: exact match with analytic_pattern rasters
        return absorption_image(state, orders, state.grid.pitch_y_m,
                                label=label)

    def expand(self, state: LadderState) -> LadderState:
        im = self.imaging
        return time_of_flight(state, im["time_of_flight_s"],
                              im["meanfield_window_s"], self.g2d_j_m2,
                              pad_factor=im["pad_factor"])


def _prepare(cfg: ExperimentConfig) -> _Context:
    units = cfg.units()
    grid = cfg.make_grid(units)
    trap = cfg.trap()
    g2d = cfg.g2d_j_m2(units)
    logger.info("preparing %s ground state on %dx%d grid",
                cfg.data["condensate"]["profile"], grid.n_y, grid.n_z)
    ground = cfg.ground_state(grid)
    return _Context(cfg, units, grid, trap, g2d, ground, cfg.pulses(grid))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table(header: list[str], rows: list[list]) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _populations_table(log: list[dict], n_max: int) -> str:
    orders = range(-n_max, n_max + 1)
    header = (["pulse", "delta_nu_recoils", "duration_s"]
              + [f"p_{order_tag(n)}" for n in orders])
    rows = [[i, entry["delta_nu_recoils"], entry["duration_s"]]
            + [entry["populations"][n] for n in orders]
            for i, entry in enumerate(log)]
    return _table(header, rows)


def _add_populations(summary: dict, state: LadderState) -> None:
    for n in state.orders:
        summary[f"population_order_{order_tag(n)}"] = state.population(n)


def _add_vortex_report(summary: dict, ctx: _Context, state: LadderState,
                       order: int) -> None:
    report = vortex_report(state.component(order),
                           ctx.report_loop_radius_m())
    tag = order_tag(order)
    summary[f"winding_order_{tag}"] = report.winding
    summary[f"l_z_order_{tag}"] = report.l_z_expect
    summary[f"core_y_m_order_{tag}"] = report.core_location[0]
    summary[f"core_z_m_order_{tag}"] = report.core_location[1]
    summary[f"winding_confidence_rad_order_{tag}"] = report.confidence


def _populated_orders(state: LadderState, floor: float) -> list[int]:
    return [n for n in state.orders if state.population(n) >= floor]


def _dump_fields(bundle: _Bundle, ctx: _Context, state: LadderState) -> None:
    for n in _populated_orders(state, DUMP_POPULATION_FLOOR):
        tag = order_tag(n)
        bundle.add_field(f"field_order_{tag}.bin", state.component(n),
                         ctx.units, n, f"final in-trap order {n}")


def _tof_images(bundle: _Bundle, ctx: _Context, state: LadderState,
                prefix: str = "tof_order_") -> LadderState | None:
    if ctx.imaging["time_of_flight_s"] <= 0.0:
        return None
    flown = ctx.expand(state)
    for n in _populated_orders(flown, IMAGE_POPULATION_FLOOR):
        tag = order_tag(n)
        bundle.add_image(f"{prefix}{tag}.pgm",
                         ctx.display_image(flown, (n,), f"{prefix}{tag}"))
    return flown


def _support_radius_m(image: ImagePlane) -> float:
    radii, mean = radial_profile(image)
    peak = float(mean.max())
    if not peak > 0.0:
        raise SimulationError("empty image: no pattern support")
    inside = radii[mean >= PATTERN_SUPPORT_FLOOR * peak]
    return 1.1 * float(inside.max())


def _match_pattern(bundle: _Bundle, summary: dict, image: ImagePlane,
                   order: int, kind: str, profiles, grid: Grid2D) -> None:
    """Fit the pattern orientation theta to the image of `order`, scanning
    64 coarse angles and 17 fine ones; write the pattern, xcorr and theta.

    The centered cross-correlation of the image m with the pattern
    A + B cos theta + C sin theta is (p.v) / (|m| sqrt(v^T G v)), v = (1,
    cos theta, sin theta), from the terms' projections p and Gram matrix G
    (centered; a zero denominator scores 0), restricted to the disc where
    the image's azimuthal mean is above 1% of peak.
    """
    if image.pixels.shape != grid.shape:
        raise SimulationError("pattern comparison needs the grid-pitch "
                              "analysis image")
    zz, yy = np.meshgrid(grid.z_m, grid.y_m, indexing="ij")
    mask = np.hypot(yy, zz) <= _support_radius_m(image)
    measured = image.pixels[mask] - image.pixels[mask].mean()
    terms = np.array([t[mask] for t in pattern_terms(kind, profiles, grid)])
    terms -= terms.mean(axis=1, keepdims=True)
    proj = terms @ measured
    gram = terms @ terms.T
    # einsum, unlike a BLAS dot, sums the same way at any thread count
    norm = math.sqrt(float(np.einsum("i,i->", measured, measured)))

    def scores(thetas: np.ndarray) -> np.ndarray:
        v = np.stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
        denom = norm * np.sqrt(np.maximum(np.sum(v * (gram @ v), axis=0),
                                          0.0))
        return np.divide(proj @ v, denom, out=np.zeros_like(thetas),
                         where=denom != 0.0)

    step = 2.0 * math.pi / 64
    coarse = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    best = coarse[np.argmax(scores(coarse))]
    fine = np.linspace(best - step, best + step, 17)
    fine_scores = scores(fine)
    k = int(np.argmax(fine_scores))
    theta = float(fine[k] % (2.0 * math.pi))
    bundle.add_image(f"pattern_{kind}.pgm",
                     analytic_pattern(kind, profiles, grid, theta=theta))
    summary[f"pattern_xcorr_order_{order_tag(order)}"] = float(fine_scores[k])
    summary["pattern_theta_rad"] = theta


def _azimuthal_minima(image: ImagePlane, annulus_m: tuple[float, float]
                      ) -> list[float]:
    """Angles of local minima of the azimuthal intensity profile.

    The profile is the mean intensity per angular bin over the annulus;
    minima are bins below both circular neighbours, deepest first.  The
    bin count follows the pixel pitch (about three pixels per bin along
    the annulus midline, capped at 90) so coarse grids stay usable.
    """
    mid_circumference = math.pi * (annulus_m[0] + annulus_m[1])
    n_bins = max(12, min(90, int(mid_circumference / image.pitch_m / 3.0)))
    y, z = image.axes_m()
    zz, yy = np.meshgrid(z, y, indexing="ij")
    rho = np.hypot(yy, zz)
    mask = (rho >= annulus_m[0]) & (rho <= annulus_m[1])
    phi = np.arctan2(zz, yy)[mask]
    bins = ((phi + math.pi) / (2.0 * math.pi) * n_bins).astype(int) % n_bins
    counts = np.bincount(bins, minlength=n_bins)
    if counts.min() == 0:
        raise SimulationError("annulus too thin for the angular binning")
    profile = np.bincount(bins, weights=image.pixels[mask],
                          minlength=n_bins) / counts
    left = np.roll(profile, 1)
    right = np.roll(profile, -1)
    minima = np.flatnonzero((profile < left) & (profile < right))
    angles = (minima + 0.5) / n_bins * 2.0 * math.pi - math.pi
    order = np.argsort(profile[minima])
    return [float(angles[i]) for i in order]


def _start(ctx: _Context, bundle: _Bundle) -> LadderState:
    """The ground state on order 0, every scenario's start; its image is
    the bundle's first after the config echo.  At DEBUG, logs the ground
    state's high-k share next to the limit under which a flight's window
    runs on the in-trap grid."""
    state = ctx.initial_state()
    if logger.isEnabledFor(logging.DEBUG):
        share = _high_k_share(_fft2_stack(ctx.ground.field.values.copy()),
                              ctx.grid)
        logger.debug("ground state on the %dx%d grid: high-k share %.3g "
                     "(in-trap window limit %g)", ctx.grid.n_y,
                     ctx.grid.n_z, share, _RESOLVED_SHARE_LIMIT)
    bundle.add_image("ground_density.pgm",
                     ctx.display_image(state, (0,), "ground_density"))
    return state


def _run_pulse_pipeline(ctx: _Context, bundle: _Bundle) -> LadderState:
    logger.info("running %d pulse(s)", len(ctx.pulses))
    state, log = run_sequence(_start(ctx, bundle), ctx.pulses, ctx.trap,
                              ctx.g2d_j_m2)
    bundle.add_text("populations.tsv",
                    _populations_table(log, ctx.cfg.n_max))
    return state


def _run_single_vortex(ctx: _Context, bundle: _Bundle) -> dict:
    state = _run_pulse_pipeline(ctx, bundle)
    summary = {}
    _add_populations(summary, state)
    _add_vortex_report(summary, ctx, state, 1)
    bundle.add_image("density_order_p1.pgm",
                     ctx.display_image(state, (1,), "density_order_p1"))
    _dump_fields(bundle, ctx, state)
    _tof_images(bundle, ctx, state)
    return summary


def _run_counter_rotating(ctx: _Context, bundle: _Bundle) -> dict:
    state = _run_pulse_pipeline(ctx, bundle)
    summary = {}
    _add_populations(summary, state)
    summary["l_z_order_p1"] = oam_expectation(state.component(1))
    _dump_fields(bundle, ctx, state)
    flown = _tof_images(bundle, ctx, state)
    if flown is None:
        return summary
    analysis = ctx.analysis_image(flown, (1,), "interference_order_p1")
    radii, mean = radial_profile(analysis)
    # azimuthal mean of 4 f^2 cos^2 is 2 f^2, so f = sqrt(mean / 2)
    amplitude = np.sqrt(np.maximum(mean, 0.0) / 2.0)
    _match_pattern(bundle, summary, analysis, 1, "counter_rotating",
                   (radii, amplitude), flown.grid)
    return summary


def _run_double_charge(ctx: _Context, bundle: _Bundle) -> dict:
    last = len(ctx.pulses) - 1
    logger.info("running %d generation pulse(s)", last)
    state, log = run_sequence(_start(ctx, bundle), ctx.pulses[:last],
                              ctx.trap, ctx.g2d_j_m2)

    summary = {}
    _add_vortex_report(summary, ctx, state, 2)
    p0_before = state.population(0)
    p2_before = state.population(2)
    summary["population_before_readout_order_0"] = p0_before
    summary["population_before_readout_order_p1"] = state.population(1)
    summary["population_before_readout_order_p2"] = p2_before
    bundle.add_image("density_order_p2.pgm",
                     ctx.display_image(state, (2,), "density_order_p2"))
    # only the radial profiles of orders 0 and +2 of the first flight are
    # read again: take them now and drop the padded flight, so that the
    # readout pulse does not run beside it
    before = _tof_images(bundle, ctx, state, prefix="tof_before_readout_")
    profiles = None if before is None else [
        radial_profile(ctx.analysis_image(before, (n,), label))
        for n, label in ((0, "nonrot_profile"), (2, "rot_profile"))]
    del before

    logger.info("running the interference readout pulse")
    final, read_log = run_sequence(state, ctx.pulses[last:], ctx.trap,
                                   ctx.g2d_j_m2)
    del state  # nothing reads the pre-readout state again
    bundle.add_text("populations.tsv",
                    _populations_table(log + read_log, ctx.cfg.n_max))
    _add_populations(summary, final)
    _dump_fields(bundle, ctx, final)
    flown = _tof_images(bundle, ctx, final)
    if flown is None or profiles is None:
        return summary

    # mixing weights of the 0<->2 readout from the population balance;
    # winding orthogonality makes the cross term norm-free
    p2_after = final.population(2)
    if abs(p0_before - p2_before) < 1e-12:
        s_sq = 0.5
    else:
        s_sq = min(1.0, max(0.0, (p2_after - p2_before)
                            / (p0_before - p2_before)))
    c_sq = 1.0 - s_sq
    (radii0, mean0), (radii2, mean2) = profiles
    prof_nonrot = (radii0, math.sqrt(s_sq) * np.sqrt(np.maximum(mean0, 0.0)))
    prof_rot = (radii2, math.sqrt(c_sq) * np.sqrt(np.maximum(mean2, 0.0)))
    analysis = ctx.analysis_image(flown, (2,), "interference_order_p2")
    summary["readout_mixed_fraction"] = s_sq
    _match_pattern(bundle, summary, analysis, 2, "doubly_vs_nonrot",
                   (prof_nonrot, prof_rot), flown.grid)

    # the two interference holes, measured mid-cloud where both components
    # have support; the radius scale comes from the image itself so TOF
    # magnification drops out
    support = _support_radius_m(analysis)
    minima = _azimuthal_minima(analysis, (0.25 * support, 0.6 * support))
    if len(minima) >= 2:
        a, b = minima[0], minima[1]
        summary["interference_minimum_1_rad"] = a
        summary["interference_minimum_2_rad"] = b
        gap = abs(a - b) % (2.0 * math.pi)
        summary["minima_separation_rad"] = min(gap, 2.0 * math.pi - gap)
    return summary


def _run_phase_coherence(ctx: _Context, bundle: _Bundle) -> dict:
    cfg = ctx.cfg
    study = cfg.data["study"]
    n_trials = study["n_trials"]
    phases = study["phases_rad"]
    if phases is None:
        phases = [2.0 * math.pi * k / n_trials for k in range(n_trials)]
    first = cfg.data["pulses"][0]
    lg = cfg.beam_spec(first["absorb"])
    emit = cfg.beam_spec(first["emit"])

    # each trial is the configured sequence with pulse 0's coupling turned
    # by the trial phase, which is a phase on the imprinting beam; trial 0
    # is also the imaged trial.  Pulse 0 acts on the pure n = 0 ground
    # state, so by phase covariance of the ladder turning it by phi turns
    # order n by e^{i n phi}, and its delay is diagonal in the orders:
    # pulse 0 and its delay run once, and each trial turns that state.
    turned = replace(ctx.pulses[0], coupling=scaled_coupling(
        ctx.pulses[0].coupling, np.exp(1j * phases[0])))
    imprinted, imprint_log = run_sequence(_start(ctx, bundle), (turned,),
                                          ctx.trap, ctx.g2d_j_m2)
    orders = np.arange(-cfg.n_max, cfg.n_max + 1)
    logger.info("running %d phase trials", n_trials)
    summary = {}
    holes, readouts = [], []
    for trial, phase in enumerate(phases):
        turn = np.exp(1j * orders * (phase - phases[0]))[:, None, None]
        start = LadderState(ctx.grid, cfg.n_max, imprinted.values * turn)
        state, log = run_sequence(start, ctx.pulses[1:], ctx.trap,
                                  ctx.g2d_j_m2)
        holes.append(absorption_image(state, (0, 1), ctx.grid.pitch_y_m,
                                      label="hole_image"))
        readout_image, readout_angle = phase_readout_pattern(
            lg, emit, phase, ctx.grid)
        readouts.append(readout_angle)
        if trial == 0:
            # of the imaged trial's state only the populations are read
            _add_populations(summary, state)
            imaged_log, imaged_readout = imprint_log + log, readout_image
        # no trial runs beside the states of the one before
        del start, state

    result = phase_correlation_study(
        phases, holes, readouts,
        (study["annulus_inner_m"], study["annulus_outer_m"]))
    bundle.add_text("study_table.tsv", result.table_text())
    bundle.add_image("readout_pattern.pgm", imaged_readout)
    bundle.add_text("populations.tsv",
                    _populations_table(imaged_log, cfg.n_max))
    bundle.add_image("hole_image.pgm", holes[0])

    summary["n_trials"] = n_trials
    summary["slope"] = result.slope
    summary["intercept_rad"] = result.intercept_rad
    summary["max_residual_rad"] = float(np.max(np.abs(result.residuals_rad)))
    summary["trial_0_readout_angle_rad"] = readouts[0]
    summary["trial_0_hole_angle_rad"] = result.rows[0]["hole_angle_rad"]
    return summary


def _run_resonance_sweep(ctx: _Context, bundle: _Bundle) -> dict:
    cfg = ctx.cfg
    detunings = cfg.sweep_detunings()
    initial = _start(ctx, bundle)

    orders = range(-cfg.n_max, cfg.n_max + 1)
    rows = []
    for i, detuning in enumerate(detunings):
        logger.info("sweep point %d/%d: detuning %.3f recoils",
                    i + 1, len(detunings), detuning)
        first = replace(ctx.pulses[0], delta_nu_recoils=detuning)
        state, log = run_sequence(initial, (first,) + ctx.pulses[1:],
                                  ctx.trap, ctx.g2d_j_m2)
        bundle.add_text(f"point_{i:02d}/populations.tsv",
                        _populations_table(log, cfg.n_max))
        rows.append([detuning] + [state.population(n) for n in orders])

    header = ["detuning_recoils"] + [f"p_{order_tag(n)}" for n in orders]
    bundle.add_text("sweep_table.tsv", _table(header, rows))

    transfers = [row[header.index("p_p1")] for row in rows]
    best = int(np.argmax(transfers))
    return {"n_points": len(detunings),
            "peak_detuning_recoils": detunings[best],
            "peak_transfer": transfers[best]}


def _run_custom(ctx: _Context, bundle: _Bundle) -> dict:
    state = _run_pulse_pipeline(ctx, bundle)
    summary = {}
    _add_populations(summary, state)
    for n in _populated_orders(state, REPORT_POPULATION_FLOOR):
        if n != 0:
            _add_vortex_report(summary, ctx, state, n)
    for n in _populated_orders(state, IMAGE_POPULATION_FLOOR):
        tag = order_tag(n)
        bundle.add_image(f"density_order_{tag}.pgm",
                         ctx.display_image(state, (n,),
                                           f"density_order_{tag}"))
    _dump_fields(bundle, ctx, state)
    _tof_images(bundle, ctx, state)
    return summary


_RUNNERS = {
    "single_vortex": _run_single_vortex,
    "counter_rotating": _run_counter_rotating,
    "phase_coherence": _run_phase_coherence,
    "double_charge": _run_double_charge,
    "resonance_sweep": _run_resonance_sweep,
    "custom": _run_custom,
}


def _summary_text(summary: dict) -> str:
    lines = [f"{key}\t{_format_value(value)}" for key, value in
             summary.items()]
    return "\n".join(lines) + "\n"


def run_scenario(config, output_dir: str | None = None) -> ScenarioResult:
    """Run the scenario a config describes and write its artifact bundle.

    config may be an ExperimentConfig, a mapping, or a path to a config
    file.  output_dir overrides the config's own output directory.
    """
    if isinstance(config, ExperimentConfig):
        cfg = config
    elif isinstance(config, Mapping):
        cfg = ExperimentConfig.from_mapping(config)
    else:
        cfg = ExperimentConfig.from_file(config)

    out = output_dir if output_dir is not None else cfg.output_dir
    bundle = _Bundle(out)
    bundle.add_text("config_echo.json", dumps(cfg.data))

    ctx = _prepare(cfg)
    logger.info("scenario %s -> %s", cfg.scenario, out)
    # the header every summary starts with, then the runner's own keys
    summary = {
        "scenario": cfg.scenario,
        "schema_version": cfg.data["schema_version"],
        "seed": cfg.seed,
        "chemical_potential_j": ctx.ground.chemical_potential_j,
        "tf_radius_y_m": ctx.ground.tf_radii_m[0],
        "tf_radius_z_m": ctx.ground.tf_radii_m[1],
    }
    summary.update(_RUNNERS[cfg.scenario](ctx, bundle))

    bundle.add_text("summary.tsv", _summary_text(summary))
    bundle.add_sidecar("summary.tsv", {
        "format": "key\\tvalue per line",
        "scenario": cfg.scenario,
        "schema_version": cfg.data["schema_version"],
        "floats": "repr round-trip precision",
    })
    logger.info("wrote %d artifacts", len(bundle.names))
    return ScenarioResult(cfg.scenario, out, summary, tuple(bundle.names))
