"""Vortex detection and phase-transfer statistics.

Winding numbers come from the phase circulation around a sampled loop,
angular momentum from the spectral operator y p_z - z p_y, and hole angles
from inverted-intensity circular statistics over an annulus.  The loop and
the annulus are centred on the trap axis, the grid origin.  The phase
correlation study is analysis only: given the hole images of trials the
scenario runner has already run, one per beam phase, it fits the hole
angle against the imprinted phase, whose signature is a circular-linear
slope of -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AmbiguousHoleError, ContrastError, DensityFloorError,
                     SimulationError)
from .grid import TransverseField, ring_samples
from .imaging import ImagePlane

DENSITY_FLOOR_FRACTION = 1e-6
LOOP_SAMPLES = 128
MIN_HOLE_CONTRAST = 0.2
# below this first-moment fraction the annulus has no single minimum;
# a pure one-hole fringe gives pi/4 ~ 0.79, opposite holes give ~ 0
MIN_RESULTANT_FRACTION = 0.35
IMAG_RESIDUAL_LIMIT = 1e-10
BRANCH_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VortexReport:
    """winding from phase circulation, l_z_expect in hbar units,
    core_location in meters, confidence = rms radians between the sampled
    phase steps and a uniform winding ramp (0 for a clean vortex)."""

    winding: int
    l_z_expect: float
    core_location: tuple[float, float]
    confidence: float


def oam_expectation(fld: TransverseField,
                    center_m: tuple[float, float] = (0.0, 0.0)) -> float:
    """<L_z> in hbar units about the given center, computed spectrally.

    The discrete operator is exactly Hermitian (y and p_z act on different
    axes), so the imaginary part of the expectation must vanish to
    rounding; anything above the residue limit signals corrupted input or
    a broken transform and raises rather than returning a real part that
    cannot be trusted.
    """
    grid = fld.grid
    values = fld.values
    spec_y = np.fft.fft(values, axis=1)
    p_y = np.fft.ifft(grid.k_y[None, :] * spec_y, axis=1)
    spec_z = np.fft.fft(values, axis=0)
    p_z = np.fft.ifft(grid.k_z[:, None] * spec_z, axis=0)
    y0 = center_m[0] / grid.units.length_m
    z0 = center_m[1] / grid.units.length_m
    integrand = np.conj(values) * ((grid.mesh_y - y0) * p_z
                                   - (grid.mesh_z - z0) * p_y)
    norm = float(np.sum(np.abs(values) ** 2))
    # written as not (good range) so that NaN trips both checks
    if not 0.0 < norm < math.inf:
        raise SimulationError(
            f"cannot take <L_z> of a field with norm {norm}: it is empty "
            f"or holds NaN or inf")
    lz = complex(np.sum(integrand)) / norm
    if not abs(lz.imag) <= IMAG_RESIDUAL_LIMIT:
        raise SimulationError(
            f"<L_z> has imaginary residue {lz.imag:.3g}; field is not "
            f"resolved well enough to trust")
    return lz.real


def vortex_report(fld: TransverseField, loop_radius_m: float
                  ) -> VortexReport:
    """Winding from the phase circulation over LOOP_SAMPLES points on the
    circle of loop_radius_m about the grid origin, with <L_z> about the
    origin, the density minimum inside the loop and the ramp residual."""
    grid = fld.grid
    if not 0.0 < loop_radius_m < math.inf:
        raise SimulationError(
            f"loop radius {loop_radius_m} m is not finite and > 0")
    _, samples = ring_samples(fld.values, grid, loop_radius_m, LOOP_SAMPLES)
    floor = DENSITY_FLOOR_FRACTION * float(np.abs(fld.values).max()) ** 2
    weakest = float(np.abs(samples).min()) ** 2
    # NaN or inf in the field makes floor or weakest NaN, or floor inf
    if not weakest >= floor:
        raise DensityFloorError(
            f"loop sample density {weakest:.3g} is not at least {floor:.3g} "
            f"(1e-6 of peak); the phase there is not trustworthy")
    phases = np.angle(samples)
    steps = np.diff(phases, append=phases[0])
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    winding = int(round(float(steps.sum()) / (2.0 * math.pi)))
    ramp = 2.0 * math.pi * winding / LOOP_SAMPLES
    confidence = float(np.sqrt(np.mean((steps - ramp) ** 2)))

    scale = grid.units.length_m
    rho2 = grid.mesh_y ** 2 + grid.mesh_z ** 2
    density = np.abs(fld.values) ** 2
    inside = rho2 <= (loop_radius_m / scale) ** 2
    masked = np.where(inside, density, np.inf)
    iz, iy = np.unravel_index(int(np.argmin(masked)), masked.shape)
    core = (float(grid.y_m[iy]), float(grid.z_m[iz]))
    return VortexReport(winding, oam_expectation(fld), core, confidence)


def hole_angle(image: ImagePlane, annulus_m: tuple[float, float]) -> float:
    """Azimuth of the intensity minimum inside the annulus about the image
    centre, in (-pi, pi].

    Each pixel is weighted by how far it sits below the mean of its own
    pixel-wide ring (so the radial falloff of the cloud drops out), and
    the angle of the resultant of those weights is the hole.  A washed-out
    annulus raises ContrastError, and a weight distribution with no first
    harmonic (two opposite holes, say) raises AmbiguousHoleError.
    """
    rho_min, rho_max = annulus_m
    if not 0.0 <= rho_min < rho_max:
        raise SimulationError("annulus needs 0 <= rho_min < rho_max")
    y_axis, z_axis = image.axes_m()
    yy = y_axis[None, :]
    zz = z_axis[:, None]
    rho2 = yy**2 + zz**2
    mask = (rho2 >= rho_min**2) & (rho2 <= rho_max**2)
    if int(mask.sum()) < 16:
        raise SimulationError("annulus covers fewer than 16 pixels")
    intensity = image.pixels[mask]
    i_min, i_max = float(intensity.min()), float(intensity.max())
    if i_max <= 0.0 or (i_max - i_min) / (i_max + i_min) <= MIN_HOLE_CONTRAST:
        raise ContrastError(
            f"annulus contrast "
            f"{0.0 if i_max <= 0.0 else (i_max - i_min) / (i_max + i_min):.3g}"
            f" too low to locate a hole (needs > {MIN_HOLE_CONTRAST})")
    ring = np.floor((np.sqrt(rho2[mask]) - rho_min) / image.pitch_m)
    ring = ring.astype(int)
    ring_mean = (np.bincount(ring, weights=intensity)
                 / np.bincount(ring))
    weights = ring_mean[ring] - intensity
    phi = np.arctan2(np.broadcast_to(zz, rho2.shape)[mask],
                     np.broadcast_to(yy, rho2.shape)[mask])
    resultant = complex(np.sum(weights * np.exp(1j * phi)))
    fraction = abs(resultant) / float(np.sum(np.abs(weights)))
    if fraction < MIN_RESULTANT_FRACTION:
        raise AmbiguousHoleError(
            f"annulus intensity has no single minimum (resultant fraction "
            f"{fraction:.3g} < {MIN_RESULTANT_FRACTION}); more than one "
            f"hole or none")
    return float(np.angle(resultant))


def _wrap(angle):
    return (np.asarray(angle) + math.pi) % (2.0 * math.pi) - math.pi


def fit_circular_slope(phases_rad, angles_rad
                       ) -> tuple[float, float, np.ndarray]:
    """Least-squares slope of periodic angles against phases.

    Tries integer slopes -2..2 to pick the unwrap branch (largest circular
    resultant), unwraps the angles about that branch and refines by
    ordinary least squares.  Returns (slope, intercept, residuals_rad).
    Raises SimulationError unless the phases take at least two distinct
    values.

    With n equally spaced phases, branches m and m +/- n have identical
    resultants (n = 3: slope -1 ties with +2), so branches within
    BRANCH_TIE_TOLERANCE of the best count as tied and the smallest |m|
    wins; rounding never picks the branch.
    """
    phases = np.asarray(phases_rad, dtype=float)
    angles = np.asarray(angles_rad, dtype=float)
    if np.unique(phases).size < 2:
        raise SimulationError("slope fit needs at least two distinct phases")
    branches = {}
    for m in range(-2, 3):
        branches[m] = abs(complex(np.mean(np.exp(1j * (angles - m * phases)))))
    best = max(branches.values())
    m = min((m for m, r in branches.items()
             if r >= best - BRANCH_TIE_TOLERANCE), key=abs)
    offsets = angles - m * phases
    mean_offset = math.atan2(float(np.mean(np.sin(offsets))),
                             float(np.mean(np.cos(offsets))))
    unwrapped = m * phases + mean_offset + _wrap(offsets - mean_offset)
    slope, intercept = np.polyfit(phases, unwrapped, 1)
    residuals = _wrap(angles - (slope * phases + intercept))
    return float(slope), float(intercept), residuals


@dataclass(frozen=True)
class StudyResult:
    """Rows of the phase study plus the fitted hole-angle response."""

    rows: tuple[dict, ...]
    slope: float
    intercept_rad: float
    residuals_rad: np.ndarray = field(repr=False)

    def table_text(self) -> str:
        lines = ["trial\tbeam_phase_rad\treadout_angle_rad\thole_angle_rad"]
        for row in self.rows:
            lines.append(
                f"{row['trial']}\t{row['beam_phase_rad']:.9f}\t"
                f"{row['readout_angle_rad']:.9f}\t{row['hole_angle_rad']:.9f}")
        return "\n".join(lines) + "\n"


def phase_correlation_study(phases_rad, hole_images, readout_angles_rad,
                            annulus_m: tuple[float, float]) -> StudyResult:
    """Fit each trial's hole angle against the beam phase it imprinted.

    Trial k ran with the extra beam phase phases_rad[k]; hole_images[k] is
    its in-trap image of orders 0 and 1 together and readout_angles_rad[k]
    the optical readout of the same beam pair.  The expected response is
    hole = pi - phase + const: slope -1 against the imprinted phase, which
    is what the fit quantifies.

    The annulus should stay well inside the cloud: further out the
    anisotropic envelope's second harmonic mixes with the fringe and biases
    the circular mean by several degrees.
    """
    rows = tuple(
        {"trial": trial, "beam_phase_rad": float(phase),
         "readout_angle_rad": float(readout),
         "hole_angle_rad": hole_angle(image, annulus_m)}
        for trial, (phase, image, readout) in enumerate(
            zip(phases_rad, hole_images, readout_angles_rad, strict=True)))
    slope, intercept, residuals = fit_circular_slope(
        [r["beam_phase_rad"] for r in rows],
        [r["hole_angle_rad"] for r in rows])
    return StudyResult(rows, slope, intercept, residuals)
