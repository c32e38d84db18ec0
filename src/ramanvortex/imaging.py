"""Time-of-flight expansion, absorption images, analytic interference
patterns and 16-bit PGM export.

Expansion happens on a zero-padded copy of the grid: an optional short
nonlinear window converts interaction energy into kinetic energy, then the
remainder of the flight is a single exact spectral propagation.  The
window runs on the in-trap grid, a quarter of the padded points, when the
state is resolved there (little of its norm at high k) and stays clear of
the in-trap edge, and on the padded grid otherwise.  Orders of the
momentum ladder fly apart along the (ungridded) beam axis at 2 hbar k / M
per order; imaging only needs each order's recorded shift.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridOverflowError, SimulationError
from .grid import (Grid2D, LadderState, bilinear_sample, read_sidecar,
                   sidecar_number, write_sidecar, _axial_phase, _density,
                   _fft2_stack, _free_flight, _high_k_share, _ifft2_stack,
                   _strang_finish, _strang_steps)

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

# Bound on Phi p for the orders that skip the mean field of the
# time-of-flight window, where Phi = t_window g rho_max is the window's
# whole mean-field phase and p the pruned orders' summed share of the
# norm.  A pruned order still flies freely for the whole time, but it
# neither feels the mean field (its own phase error is at most Phi on
# its share p) nor adds to it (the others' phase error is at most Phi p).
# Budget: as for WINDOW_PHASE_PER_STEP, every order's density after the
# whole flight within 1e-6 of the image peak of an unpruned window.
# Measured against an unpruned window, the largest density error over
# Phi p was 0.32-0.50: 1.26e-8 of the image peak on the benchmark's
# vortex_256 flight at seeds 1-3 (256^2, 4 of 7 orders in the window,
# Phi p = 2.5e-8; pruning order -1 too would give Phi p = 8.9e-6 and an
# error of 5.0e-6), 1.43e-7 on double_charge_128's second flight at
# seeds 1-3 (128^2, 6 of 9 orders, Phi p = 4.4e-7, the largest of all)
# and at most 1.1e-7 on the three presets that fly at 64^2
# (counter_rotating: 5 of 7 orders, Phi p = 2.9e-7).
_PRUNE_BUDGET = 1e-6

# Fraction of the norm allowed within two samples of the padded boundary
# after the flight.  Largest density error of any order after the whole
# flight, against a window run on an 8x box, in units of the image peak
# (seed 1, double_charge_128's two flights alike): with the window on the
# 2x padded grid, 1.2e-6 on vortex_256, just over the 1e-6 budget that
# WINDOW_PHASE_PER_STEP and _PRUNE_BUDGET keep, and 1.2e-8 on
# double_charge_128; with the window on the in-trap grid, 1.9e-5 on
# vortex_256 (the Thomas-Fermi edge wraps round the periodic box) and
# 5.8e-8 on double_charge_128.  So the window runs on the in-trap grid, a
# quarter of the points, only for a state that _RESOLVED_SHARE_LIMIT
# calls resolved and whose window stays within _WRAP_MASS_LIMIT of the
# in-trap edge.  The 2x box keeps the 1e-6 budget only for the
# workloads' short windows (40 and 100 us): the presets' 500 us windows
# on it miss by 1.4-4.3e-5 at 64^2, 1.1-4.0e-5 at 128^2 and 2.8e-6-1.2e-5
# at 256^2 on Thomas-Fermi states, and by 2.2-9.0e-6 on relaxed states at
# 64^2 (the table at _RESOLVED_SHARE_LIMIT, "/ padded" column).
_BOUNDARY_MASS_LIMIT = 1e-6

# Largest high-k share (grid._high_k_share: the share of the norm at |k|
# above half the Nyquist radius, read off the window rows' in-trap
# spectrum) at which the mean-field window runs on the in-trap grid.  A
# smooth state's spectrum decays fast and a kinked one's slowly
# (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 4), and the kink
# of a Thomas-Fermi edge is what wraps round the in-trap box.  Measured
# at seed 1 on the flights of vortex_256 and double_charge_128, of the
# single_vortex, counter_rotating and double_charge presets (6 ms with a
# 500 us window) with either profile, and of a relaxed 15 um cloud with
# a charge-1 order split off it, flown as the presets, on 64^2 over
# 80-140 um: the share, then the largest density error of any order
# against a window on an 8x box (4x at 256^2), in units of the image
# peak, with the window in trap / on the 2x padded grid.  The shares of
# the 256^2 presets (*) are read off the padded spectrum, which sampled
# at every other wavenumber is the in-trap one; everywhere both were
# read, the in-trap share is 0.1-6% the larger.
#   relaxed, 256^2 presets (*)    7.6-8.5e-11    7.2e-13-1.8e-12 /
#                                                1.1-1.9e-13
#   relaxed 15 um, 64^2, 80 um    1.6e-6         2.5e-8 / 2.2e-9
#   relaxed, 128^2 presets and    3.1-3.6e-6     4.1e-8-1.1e-7 /
#     double_charge_128                          0.95-2.5e-8
#   relaxed 15 um, 64^2, 90 um    8.2e-6         7.7e-8 / 9.7e-9
#   relaxed 15 um, 64^2, 100 um   2.2e-5         2.4e-7 / 6.3e-8
#   relaxed 15 um, 64^2, 120 um   1.5e-4         9.1e-7 / 1.9e-7
#   Thomas-Fermi, 256^2 presets   2.8-2.9e-4     1.9e-5-1.1e-4 /
#     (*) and vortex_256                         9.5e-7-1.2e-5
#   relaxed 15 um, 64^2, 140 um   4.3e-4         2.1e-6 / 7.2e-7
#   relaxed, 64^2 presets         5.6-6.5e-4     8.8e-6-3.8e-5 / 2.2-9.0e-6
#   Thomas-Fermi, 128^2 presets   1.2e-3         5.3e-5-1.7e-4 / 1.1-4.0e-5
#   Thomas-Fermi, 64^2 presets    4.4-4.6e-3     6.1e-5-1.9e-4 / 1.4-4.3e-5
# Every state at or below 1e-5 meets the 1e-6 budget by 8x or more; the
# smallest share over budget, 2.75e-4 (counter_rotating at 256^2), sits
# 27x above it.
_RESOLVED_SHARE_LIMIT = 1e-5

# Fraction of the norm allowed within two samples of the in-trap boundary
# after a window run there.  Above it the cloud has reached the edge of
# the periodic in-trap box and wrapped round, and the padded window runs
# instead.  The wrapped amplitude interferes with the cloud once it flies
# on, so the density error grows as the square root of this mass: 0.9-2.2
# sqrt(mass) of the image peak against a window on a 4x box, for a
# relaxed 30 um cloud on 128^2 over 100 and 160 um with windows of 1-8 ms
# and 2 ms of flight after them (masses 3e-20 to 9e-10), and 1.5-2.3
# sqrt(mass) against the 2x padded window on the relaxed 128^2 presets
# (masses 4.3e-16 to 1.8e-15).  1e-13 holds it to about 7e-7.
_WRAP_MASS_LIMIT = 1e-13


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

def _inner(padded: Grid2D, grid: Grid2D) -> tuple[slice, slice]:
    """The (z, y) slices of padded that hold grid, centred."""
    z0 = (padded.n_z - grid.n_z) // 2
    y0 = (padded.n_y - grid.n_y) // 2
    return slice(z0, z0 + grid.n_z), slice(y0, y0 + grid.n_y)


def _embed(state: LadderState, padded: Grid2D) -> np.ndarray:
    """The state's stack, zero-embedded at the centre of the padded grid,
    in a new stack."""
    out = np.zeros((len(state.values),) + padded.shape, dtype=np.complex128)
    out[(slice(None),) + _inner(padded, state.grid)] = state.values
    return out


def _boundary_mass_fraction(dens: np.ndarray) -> float:
    """Share of a density plane within two samples of its edge.  0 for an
    empty plane; NaN for one holding NaN or inf, which the caller's
    finite check rejects."""
    total = dens.sum()
    if not 0.0 < total < math.inf:
        return 0.0 if total == 0.0 else math.nan
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
    multiplication.  Faint orders at the ends of the ladder skip the
    window's mean field but fly freely for all of t_s: the fainter edge
    order is pruned while Phi p stays within _PRUNE_BUDGET (Phi the
    window's whole mean-field phase, p the pruned share of the norm), so
    the window's orders stay a contiguous range of rows.

    The window runs on one of two grids.  It starts on the in-trap grid,
    where its first transform gives the spectrum of its rows.  If the
    share of their norm at |k| above half the Nyquist radius is within
    _RESOLVED_SHARE_LIMIT, the window runs on there and its rows are
    embedded in the padded stack after it, unless more than
    _WRAP_MASS_LIMIT of their norm then lies within two samples of the
    in-trap edge, where it has wrapped round; otherwise the window runs
    on the padded grid.  Costs 2 n + 3 stack FFTs for n window steps on
    the padded grid, one of them the in-trap transform the share is read
    from, plus one per block of pruned rows, and 2 n + 4 with the window
    on the in-trap grid, where 2 n + 2 of them run.

    Returns a new state on the padded grid with each order's axial
    displacement recorded for imaging.  Logs one DEBUG record per call:
    the window's steps, the grid it ran on, the high-k share and in-trap
    boundary mass (NaN where not read), its largest phase per step, the
    pruned orders with Phi p and the boundary mass, each next to its
    limit.

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
    grid = state.grid
    units = grid.units
    window_s = min(meanfield_window_s, t_s)

    padded = grid.padded(pad_factor)
    dim = len(state.values)
    g = units.coupling2d_to_internal(g2d_j_m2)
    t = units.time_to_internal(t_s)
    t_window = units.time_to_internal(window_s) if g != 0.0 else 0.0

    # the rows lo .. hi - 1 feel the window's mean field
    lo = hi = 0
    n_steps, dt, phase_per_step, phi_p, pruned = 0, 0.0, 0.0, 0.0, []
    if t_window > 0.0:
        # populations and rho_max are read off the unpadded state
        rate = float(abs(g) * _density(state.values).max())
        if not math.isfinite(rate):
            raise SimulationError(
                f"mean-field phase rate is {rate}: the state holds NaN or inf")
        phi = t_window * rate
        pops = [state.population(n) for n in state.orders]
        total = sum(pops)
        hi, pruned_pop = dim, 0.0
        while lo < hi:
            # the fainter edge order, the lower one on a tie
            k = lo if pops[lo] <= pops[hi - 1] else hi - 1
            if not phi * (pruned_pop + pops[k]) <= _PRUNE_BUDGET * total:
                break
            pruned_pop += pops[k]
            if k == lo:
                lo += 1
            else:
                hi -= 1
        if pruned_pop:
            phi_p = phi * pruned_pop / total
        pruned = [*state.orders[:lo], *state.orders[hi:]]
        n_steps = max(1, math.ceil(phi / WINDOW_PHASE_PER_STEP))
        dt = t_window / n_steps
        phase_per_step = rate * dt

    # free-flight time per order: the window's orders fly what it leaves
    flight = np.full(dim, t)
    values = _embed(state, padded)
    window_grid, share, edge = padded, math.nan, math.nan
    if hi > lo:
        # The in-trap window starts on the window's rows; its first
        # transform gives the spectrum whose high-k share picks the grid.
        steps = _strang_steps(state.values[lo:hi].copy(), grid.mesh_ksq,
                              1j * dt, g)
        share = _high_k_share(next(steps)[0], grid)
        if share <= _RESOLVED_SHARE_LIMIT:
            rows = _ifft2_stack(_strang_finish(steps, n_steps))
            # a cloud that reached the in-trap edge has wrapped round
            edge = _boundary_mass_fraction(_density(rows))
            if edge <= _WRAP_MASS_LIMIT:
                window_grid = grid
                values[(slice(lo, hi),) + _inner(padded, grid)] = rows
            del rows
        del steps
        if window_grid is padded:
            # in place on the window's rows of the padded stack
            steps = _strang_steps(values[lo:hi], padded.mesh_ksq, 1j * dt, g)
            next(steps)
            _strang_finish(steps, n_steps)
            del steps
        flight[lo:hi] -= t_window
    if t > 0.0:
        # the rows in position space join the spectrum, each block in place
        blocks = ((values[:lo], values[hi:]) if window_grid is padded
                  else (values,))
        for rows in blocks:
            if len(rows):
                _fft2_stack(rows)
        _free_flight(values, padded.mesh_ksq, flight)
        values = _ifft2_stack(values)

    _axial_phase(values, t)

    # Axial displacement per order: 2 hbar k / M = 4 length units per time
    # unit in recoil units.
    v_si = 4.0 * units.length_m / units.time_s
    shifts = {n: float(n * v_si * t_s) for n in state.orders}

    out = LadderState(padded, state.n_max, values, axial_shift_m=shifts)
    frac = _boundary_mass_fraction(out.total_density())
    logger.debug(
        "time of flight %.3g s: mean-field window of %d steps, dt %.3g s, "
        "over %d of %d orders on the %s %dx%d grid; high-k share %.3g "
        "(limit %g), in-trap boundary mass fraction %.3g (limit %g); "
        "g*rho_max*dt %.3g rad (limit %g); "
        "pruned orders %s, window phase x pruned share %.3g (limit %g); "
        "boundary mass fraction %.3g (limit %g)",
        t_s, n_steps, dt * units.time_s, hi - lo, dim,
        "in-trap" if window_grid is grid else "padded", window_grid.n_y,
        window_grid.n_z, share, _RESOLVED_SHARE_LIMIT, edge,
        _WRAP_MASS_LIMIT, phase_per_step, WINDOW_PHASE_PER_STEP, pruned,
        phi_p, _PRUNE_BUDGET, frac, _BOUNDARY_MASS_LIMIT)
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

def absorption_image(state: LadderState, select, pitch_m: float,
                     blur_sigma_m: float = 0.0, noise_rms: float = 0.0,
                     seed: int = 0, label: str = "") -> ImagePlane:
    """Column-density image of the selected momentum orders.

    Orders with different recorded axial shifts (after a flight, every
    order has its own) add as densities; orders that share a shift, or
    carry none (in trap), add as amplitudes (|sum psi_n|^2).  The result
    is resampled to the requested square pixel pitch.  blur_sigma_m
    applies an optional Gaussian blur and noise_rms adds seeded Gaussian
    noise; both default off and must be finite and >= 0.
    """
    orders = sorted(set(int(n) for n in select))
    if not orders:
        raise SimulationError("empty order selection for imaging")
    for name, value in (("blur_sigma_m", blur_sigma_m),
                        ("noise_rms", noise_rms)):
        # written as not (0 <= x < inf) so that NaN is rejected too
        if not 0.0 <= value < math.inf:
            raise SimulationError(f"{name} {value} is not finite and >= 0")
    shifts = state.axial_shift_m or {}
    by_shift = {}
    for n in orders:
        by_shift.setdefault(shifts.get(n), []).append(state.index(n))
    dens = sum(np.abs(np.sum(state.values[rows], axis=0)) ** 2
               for rows in by_shift.values())

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
    pitch_m, min_value or max_value or holds one that is not a number."""
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
        data = f.read(rows * cols * 2)
    # checked on the bytes: an odd count is no array of 16-bit pixels
    if len(data) != rows * cols * 2:
        raise SimulationError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=">u2")
    scale_keys = ("pitch_m", "min_value", "max_value")
    meta = read_sidecar(path, scale_keys)
    pitch, lo, hi = (sidecar_number(path, meta, key) for key in scale_keys)
    pixels = lo + raw.reshape(rows, cols).astype(float) / 65535.0 * (hi - lo)
    pixels = np.maximum(pixels, 0.0)
    image = ImagePlane(pixels, pitch, label=meta.get("label", ""))
    return image, meta
