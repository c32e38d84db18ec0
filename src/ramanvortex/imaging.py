"""Time-of-flight expansion, absorption images, analytic interference
patterns and 16-bit PGM export.

Expansion happens on a zero-padded copy of the grid: an optional short
nonlinear window converts interaction energy into kinetic energy, then the
remainder of the flight is a single exact spectral propagation.  Orders of
the momentum ladder fly apart along the (ungridded) beam axis at
2 hbar k / M per order; imaging only needs the bookkeeping of who has
separated from whom.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridOverflowError, SimulationError
from .grid import (Grid2D, LadderState, bilinear_sample, read_sidecar,
                   write_sidecar, _axial_phase, _fft2_stack, _free_flight,
                   _ifft2_stack, _strang_spectrum)

logger = logging.getLogger(__name__)

IMAGE_SCHEMA_VERSION = 1

# Mean-field phase g rho_max dt allowed per step of the time-of-flight
# window.  The kinetic half-steps are exact, so only the splitting error
# counts; it scales as Phi theta^2 (Phi = t_window g rho_max, the window's
# whole mean-field phase; theta this constant) and depends on the cloud's
# smoothness, not on the grid's Nyquist rate.  Budget: the largest density
# error of any order after the whole flight, against a window with 8x
# finer steps, at most 1e-6 of the image peak.  Measured at theta = 0.03:
# 5.8e-7 on the single_vortex preset's 500 us window (256^2 in-trap state
# after its vortex pulse, Phi = 2.57 rad), 9.3e-7 on a bare Thomas-Fermi
# cloud at 64^2 and 7.4e-7 at 128^2.  theta = 0.035 gives 1.25e-6 on that
# 64^2 cloud.
WINDOW_PHASE_PER_STEP = 0.03

# Population below which a ladder component skips the mean field of the
# window; it still flies freely for the whole time.  This is not exact:
# the order neither feels the mean field nor adds to it.  The first moves
# only its own amplitude, which lies below every image and dump floor; the
# second leaves out at most this fraction of the norm from the others'
# mean field.
_PRUNE_POPULATION = 1e-12

# Fraction of the norm allowed within two samples of the padded boundary.
_BOUNDARY_MASS_LIMIT = 1e-6


@dataclass(frozen=True)
class ImagePlane:
    """A real, nonnegative image on square pixels.

    Fields:
        pixels: (rows, cols) float array, rows along z, columns along y,
            row 0 at the most negative z (origin lower).
        pitch_m: pixel pitch in meters.
        label: free-form description.
    """

    pixels: np.ndarray
    pitch_m: float
    label: str = ""

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2:
            raise SimulationError("image pixels must be 2D")
        if not np.all(np.isfinite(px)) or np.any(px < 0.0):
            raise SimulationError("image pixels must be finite and nonnegative")
        if not 0.0 < self.pitch_m < math.inf:
            raise SimulationError("pixel pitch must be finite and positive")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape

    def axes_m(self) -> tuple[np.ndarray, np.ndarray]:
        """Centered (y, z) pixel-center axes in meters."""
        rows, cols = self.pixels.shape
        y = (np.arange(cols) - cols // 2) * self.pitch_m
        z = (np.arange(rows) - rows // 2) * self.pitch_m
        return y, z


def _require_square_pixels(grid: Grid2D) -> float:
    if not math.isclose(grid.pitch_y_m, grid.pitch_z_m, rel_tol=1e-12):
        raise SimulationError(
            "this operation needs square grid pixels; "
            f"got {grid.pitch_y_m} x {grid.pitch_z_m} m")
    return grid.pitch_y_m


# ---------------------------------------------------------------------------
# Time of flight
# ---------------------------------------------------------------------------

def _embed(values: np.ndarray, grid: Grid2D, padded: Grid2D) -> np.ndarray:
    out = np.zeros((values.shape[0],) + padded.shape, dtype=np.complex128)
    z0 = (padded.n_z - grid.n_z) // 2
    y0 = (padded.n_y - grid.n_y) // 2
    out[:, z0:z0 + grid.n_z, y0:y0 + grid.n_y] = values
    return out


def _boundary_mass_fraction(state: LadderState) -> float:
    dens = state.total_density()
    total = dens.sum()
    if total <= 0.0:
        return 0.0
    edge = (dens[:2, :].sum() + dens[-2:, :].sum()
            + dens[2:-2, :2].sum() + dens[2:-2, -2:].sum())
    return float(edge / total)


def time_of_flight(state: LadderState, t_s: float, meanfield_window_s: float,
                   g2d_j_m2: float, pad_factor: float = 2.0) -> LadderState:
    """Free expansion for t_s seconds on a zero-padded grid.

    The trap is off throughout.  For the first meanfield_window_s the
    interaction term is kept (the split-step loop pulses use, with steps
    sized by the mean-field phase alone: g rho_max dt at most
    WINDOW_PHASE_PER_STEP, since the kinetic half-steps are exact);
    afterwards propagation is exact and linear in one spectral
    multiplication.  Orders below _PRUNE_POPULATION skip the mean field
    but fly freely for all of t_s.  Returns a new state on the padded grid
    with per-order axial displacements recorded for the separation
    bookkeeping.  Logs one DEBUG record per call: the window's steps, its
    largest phase per step and the boundary mass, each next to its limit.

    Raises GridOverflowError if the expanded cloud reaches the padded
    boundary, and SimulationError if the state holds NaN or inf, or if a
    time is negative or NaN (t_s also when infinite), or pad_factor is
    below 2, NaN or infinite.
    """
    # written as not (a <= x) so that NaN trips every check
    if not 0.0 <= t_s < math.inf:
        raise SimulationError(f"time of flight {t_s} s is not finite and >= 0")
    if not meanfield_window_s >= 0.0:
        raise SimulationError(
            f"mean-field window {meanfield_window_s} s is not >= 0")
    if not 2.0 <= pad_factor < math.inf:
        raise SimulationError(
            f"pad_factor {pad_factor} is not finite and >= 2 "
            f"(zero-embedding rule)")
    units = state.grid.units
    window_s = min(meanfield_window_s, t_s)

    padded = state.grid.padded(pad_factor)
    values = _embed(state.values, state.grid, padded)
    g = units.coupling2d_to_internal(g2d_j_m2)
    t = units.time_to_internal(t_s)
    t_window = units.time_to_internal(window_s) if g != 0.0 else 0.0

    # free-flight time per order: active orders fly what the window leaves
    flight = np.full(len(values), t)
    active, n_steps, dt, phase_per_step = (), 0, 0.0, 0.0
    if t_window > 0.0:
        pops = np.sum(np.abs(values) ** 2, axis=(1, 2)) * padded.cell_area
        # not (x <= floor) keeps a NaN order, so the rate check below sees it
        active = np.flatnonzero(~(pops <= _PRUNE_POPULATION))
        rho_max = np.sum(np.abs(values[active]) ** 2, axis=0).max()
        rate = float(abs(g) * rho_max)
        if not math.isfinite(rate):
            raise SimulationError(
                f"mean-field phase rate is {rate}: the state holds NaN or inf")
        n_steps = max(1, math.ceil(t_window * rate / WINDOW_PHASE_PER_STEP))
        dt = t_window / n_steps
        phase_per_step = rate * dt
        spec = _strang_spectrum(values[active], padded.mesh_ksq, dt,
                                n_steps, g)
        flight[active] -= t_window
        # the window ends in momentum space; the pruned orders join it there
        pruned = np.flatnonzero(pops <= _PRUNE_POPULATION)
        if pruned.size:
            values[pruned] = _fft2_stack(values[pruned])
        values[active] = spec
        del spec
    elif t > 0.0:
        values = _fft2_stack(values)
    if t > 0.0:
        _free_flight(values, padded.mesh_ksq, flight)
        values = _ifft2_stack(values)

    _axial_phase(values, t)

    # Axial displacement per order: 2 hbar k / M = 4 length units per time
    # unit in recoil units.
    v_si = 4.0 * units.length_m / units.time_s
    shifts = {n: float(n * v_si * t_s) for n in state.orders}

    out = LadderState(padded, state.n_max, values, axial_shift_m=shifts)
    frac = _boundary_mass_fraction(out)
    logger.debug(
        "time of flight %.3g s: mean-field window of %d steps, dt %.3g s, "
        "over %d of %d orders; g*rho_max*dt %.3g rad (limit %g); "
        "boundary mass fraction %.3g (limit %g)",
        t_s, n_steps, dt * units.time_s, len(active), len(values),
        phase_per_step, WINDOW_PHASE_PER_STEP, frac, _BOUNDARY_MASS_LIMIT)
    if not math.isfinite(frac):
        raise SimulationError(
            f"boundary mass fraction is {frac}: the state holds NaN or inf")
    if not frac <= _BOUNDARY_MASS_LIMIT:
        raise GridOverflowError(
            f"expanded cloud reached the padded boundary "
            f"(boundary mass fraction {frac:.2e}); rerun with pad_factor "
            f">= {2.0 * pad_factor:g}")
    return out


# ---------------------------------------------------------------------------
# Absorption imaging
# ---------------------------------------------------------------------------

def _cloud_radius_y_m(state: LadderState) -> float:
    """Thomas-Fermi-equivalent y semi-axis sqrt(6 <y^2>) in meters."""
    dens = state.total_density()
    total = dens.sum()
    if total <= 0.0:
        return 0.0
    y2 = float(np.sum(dens * state.grid.mesh_y**2) / total)
    return math.sqrt(6.0 * y2) * state.grid.units.length_m


def absorption_image(state: LadderState, select, pitch_m: float,
                     blur_sigma_m: float = 0.0, noise_rms: float = 0.0,
                     seed: int = 0, label: str = "") -> ImagePlane:
    """Column-density image of the selected momentum orders.

    Orders that are still axially co-located are summed coherently
    (|sum psi_n|^2); orders that have flown apart are summed as densities.
    A mixed selection is refused: pick orders that are either all together
    or all separated.  The result is resampled to the requested square
    pixel pitch.  blur_sigma_m applies an optional Gaussian blur and
    noise_rms adds seeded Gaussian noise; both default off.
    """
    orders = sorted(set(int(n) for n in select))
    if not orders:
        raise SimulationError("empty order selection for imaging")
    for n in orders:
        state.index(n)

    if state.axial_shift_m is None or len(orders) == 1:
        coherent = True
    else:
        threshold = 2.0 * _cloud_radius_y_m(state)
        seps = [abs(state.axial_shift_m[a] - state.axial_shift_m[b])
                for i, a in enumerate(orders) for b in orders[i + 1:]]
        if all(s > threshold for s in seps):
            coherent = False
        elif all(s <= threshold for s in seps):
            coherent = True
        else:
            raise SimulationError(
                "selected orders are neither all separated nor all "
                "co-located; image them in consistent groups")

    stack = state.values[[state.index(n) for n in orders]]
    if coherent:
        dens = np.abs(np.sum(stack, axis=0)) ** 2
    else:
        dens = np.sum(np.abs(stack) ** 2, axis=0)

    grid = state.grid
    if not 0.0 < pitch_m < math.inf:
        raise SimulationError(f"pixel pitch {pitch_m} m is not finite and > 0")
    same_pitch = (math.isclose(pitch_m, grid.pitch_y_m, rel_tol=1e-12)
                  and math.isclose(pitch_m, grid.pitch_z_m, rel_tol=1e-12))
    if same_pitch:
        pixels = dens
    else:
        n_y = max(2, int(round(grid.extent_y_m / pitch_m)))
        n_z = max(2, int(round(grid.extent_z_m / pitch_m)))
        y = (np.arange(n_y) - n_y // 2) * pitch_m
        z = (np.arange(n_z) - n_z // 2) * pitch_m
        yy = np.clip(y, grid.y_m[0], grid.y_m[-1])
        zz = np.clip(z, grid.z_m[0], grid.z_m[-1])
        zz_mesh, yy_mesh = np.meshgrid(zz, yy, indexing="ij")
        pixels = bilinear_sample(dens, grid.y_m, grid.z_m, yy_mesh, zz_mesh)

    if blur_sigma_m > 0.0:
        from scipy.ndimage import gaussian_filter
        pixels = gaussian_filter(pixels, sigma=blur_sigma_m / pitch_m, mode="constant")
    if noise_rms > 0.0:
        rng = np.random.default_rng(seed)
        pixels = pixels + rng.normal(0.0, noise_rms * pixels.max(), pixels.shape)
        pixels = np.maximum(pixels, 0.0)

    return ImagePlane(pixels, pitch_m, label=label)


# ---------------------------------------------------------------------------
# Analytic interference patterns
# ---------------------------------------------------------------------------

PATTERN_KINDS = ("counter_rotating", "rot_vs_nonrot", "doubly_vs_nonrot")


def _as_profile(profile):
    if callable(profile):
        return profile
    r_axis, amp = profile
    r_axis = np.asarray(r_axis, dtype=float)
    amp = np.asarray(amp, dtype=float)
    return lambda r: np.interp(r, r_axis, amp, left=amp[0], right=0.0)


def pattern_terms(kind: str, radial_profiles, grid: Grid2D
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pattern of `kind` as A + B cos(theta) + C sin(theta) on the grid:
      counter_rotating:  |f e^{i(phi + theta)} + f e^{-i phi}|^2
      rot_vs_nonrot:     |f0 + f1 e^{i(phi + theta)}|^2
      doubly_vs_nonrot:  |f0 + f2 e^{i(2 phi + theta)}|^2
    are A + X cos(l phi + theta) with winding l = 2, 1, 2; A = X = 2 f^2
    for the first, A = f0^2 + fl^2 and X = 2 f0 fl for the others.  So
    B = X cos(l phi) and C = -X sin(l phi).

    radial_profiles is one profile (counter_rotating) or a pair; each is a
    callable real amplitude of radius in meters or a sampled (r_m, amp) pair.
    """
    if kind not in PATTERN_KINDS:
        raise SimulationError(f"unknown pattern kind {kind!r}")
    zz, yy = np.meshgrid(grid.z_m, grid.y_m, indexing="ij")
    rho = np.hypot(yy, zz)
    phi = np.arctan2(zz, yy)

    if kind == "counter_rotating":
        f = _as_profile(radial_profiles)(rho)
        mean = cross = 2.0 * f * f
    else:
        try:
            prof_a, prof_b = radial_profiles
        except (TypeError, ValueError):
            raise SimulationError(f"{kind} needs two radial profiles")
        f0 = _as_profile(prof_a)(rho)
        fl = _as_profile(prof_b)(rho)
        mean = f0 * f0 + fl * fl
        cross = 2.0 * f0 * fl
    winding = 1 if kind == "rot_vs_nonrot" else 2
    return mean, cross * np.cos(winding * phi), -cross * np.sin(winding * phi)


def analytic_pattern(kind: str, radial_profiles, grid: Grid2D,
                     theta: float = 0.0) -> ImagePlane:
    """Reference two-path interference pattern (see pattern_terms) at
    orientation theta on the given grid, scaled to unit maximum."""
    a, b, c = pattern_terms(kind, radial_profiles, grid)
    pitch = _require_square_pixels(grid)
    # the sum rounds to about -1e-17 at an exact zero
    intensity = np.maximum(a + b * math.cos(theta) + c * math.sin(theta), 0.0)
    peak = intensity.max()
    if peak > 0.0:
        intensity = intensity / peak
    return ImagePlane(intensity, pitch, label=kind)


def radial_profile(image: ImagePlane) -> tuple[np.ndarray, np.ndarray]:
    """Azimuthal mean of an image about its centre: returns (radii_m,
    mean_intensity).

    Bin width is one pixel pitch; only bins that contain pixels appear.
    """
    y, z = image.axes_m()
    zz, yy = np.meshgrid(z, y, indexing="ij")
    r = np.hypot(yy, zz)
    idx = np.floor(r / image.pitch_m).astype(int).ravel()
    sums = np.bincount(idx, weights=image.pixels.ravel())
    counts = np.bincount(idx)
    keep = counts > 0
    radii = (np.flatnonzero(keep) + 0.5) * image.pitch_m
    return radii, sums[keep] / counts[keep]


# ---------------------------------------------------------------------------
# 16-bit PGM export with a text sidecar
# ---------------------------------------------------------------------------

def write_pgm(image: ImagePlane, path: str) -> None:
    """Write a 16-bit binary PGM plus `path`.meta with scale and geometry."""
    px = image.pixels
    lo = float(px.min())
    hi = float(px.max())
    if hi > lo:
        quant = np.round((px - lo) / (hi - lo) * 65535.0).astype(">u2")
    else:
        quant = np.zeros(px.shape, dtype=">u2")
    rows, cols = px.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        f.write(quant.tobytes(order="C"))
    write_sidecar(path, {
        "schema_version": IMAGE_SCHEMA_VERSION,
        "kind": "absorption_image",
        "pitch_m": image.pitch_m,
        "rows": rows,
        "cols": cols,
        "min_value": lo,
        "max_value": hi,
        "origin": "lower",
        "normalization": "linear_min_max_to_uint16",
        "label": image.label,
    })


def read_pgm(path: str) -> tuple[ImagePlane, dict[str, str]]:
    """Read back a PGM written by write_pgm, dequantized via its sidecar;
    raises SimulationError on a malformed header or if the sidecar lacks
    pitch_m, min_value or max_value."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P5":
            raise SimulationError(f"{path} is not a binary PGM file")
        try:
            cols, rows = (int(d) for d in f.readline().split())
            maxval = int(f.readline())
        except ValueError:
            raise SimulationError(
                f"{path}: malformed PGM header (size or maxval)") from None
        if maxval != 65535:
            raise SimulationError(f"{path}: expected 16-bit maxval, got {maxval}")
        raw = np.frombuffer(f.read(rows * cols * 2), dtype=">u2")
    if raw.size != rows * cols:
        raise SimulationError(f"{path}: truncated pixel data")
    meta = read_sidecar(path, ("pitch_m", "min_value", "max_value"))
    lo = float(meta["min_value"])
    hi = float(meta["max_value"])
    pixels = lo + raw.reshape(rows, cols).astype(float) / 65535.0 * (hi - lo)
    pixels = np.maximum(pixels, 0.0)
    image = ImagePlane(pixels, float(meta["pitch_m"]),
                       label=meta.get("label", ""))
    return image, meta
