"""Transverse beam modes and the two-photon coupling they drive.

Beams are evaluated at their waists: for waists near 100 um at 589 nm the
Rayleigh range is tens of centimeters, so curvature and Gouy phase are
irrelevant across a sub-100 um cloud.  Mode fields are unit peak; absolute
intensities enter only through a caller-supplied peak two-photon Rabi rate,
which is how the experiment itself is calibrated (pulse power tuned for a
pi-pulse, not computed from dipole matrix elements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .grid import Grid2D, TransverseField, ring_samples
from .imaging import ImagePlane, _require_square_pixels

# Highest supported azimuthal index; the momentum ladder bookkeeping tracks
# one winding step per rung and the sequences here never need more than 2.
MAX_WINDING = 2


@dataclass(frozen=True)
class BeamSpec:
    """One transverse beam on the trap axis: vortex mode or plain Gaussian.

    kind is "lg" (single-ring vortex mode, radial index 0) or "gaussian".
    winding is the azimuthal phase index l (0 for Gaussian); |l| <= 2.
    phase is a constant optical phase on the whole beam.  Beam power does
    not appear: the coupling's peak rate is set per pulse.
    """

    kind: str
    waist_m: float
    winding: int = 0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lg", "gaussian"):
            raise SimulationError(f"unknown beam kind {self.kind!r}")
        if not 0.0 < self.waist_m < math.inf:
            raise SimulationError("beam waist must be finite and positive")
        if not math.isfinite(self.phase):
            raise SimulationError(f"beam phase {self.phase} is not finite")
        if self.kind == "gaussian" and self.winding != 0:
            raise SimulationError("a Gaussian beam has no phase winding")
        if abs(self.winding) > MAX_WINDING:
            raise SimulationError(
                f"|winding| <= {MAX_WINDING} supported, got {self.winding}")


def mode_field(beam: BeamSpec, grid: Grid2D) -> TransverseField:
    """Unit-peak transverse mode on the grid.

    Gaussian: exp(-rho^2/w^2).  Vortex mode of winding l: the radial-node-
    free member (rho/w)^|l| exp(-rho^2/w^2) e^{i l phi}, whose ring of peak
    intensity sits at rho = w sqrt(|l|/2), centred on the grid origin (the
    trap axis).  The beam's own phase offset is applied; the result is
    scaled so the largest magnitude on the grid is 1.

    A Gaussian wider than the grid is fine (uniform illumination limit),
    but a vortex ring must fit inside the box, and must not vanish at
    every grid point, or the mode has no peak to normalize against.
    """
    if beam.winding != 0:
        ring_m = beam.waist_m * math.sqrt(abs(beam.winding) / 2.0)
        if ring_m >= 0.5 * min(grid.extent_y_m, grid.extent_z_m):
            raise SimulationError(
                f"vortex ring radius {ring_m:.3g} m does not fit a grid of "
                f"extent {grid.extent_y_m} x {grid.extent_z_m} m")
    w = beam.waist_m / grid.units.length_m
    y, z = grid.mesh_y, grid.mesh_z
    rho2 = y * y + z * z
    envelope = np.exp(-rho2 / w**2)
    l = beam.winding
    if l != 0:
        envelope = envelope * (np.sqrt(rho2) / w) ** abs(l)
        phi = np.arctan2(z, y)
        values = envelope * np.exp(1j * (l * phi + beam.phase))
    else:
        values = envelope * np.exp(1j * beam.phase)
    peak = np.abs(values).max()
    # a vortex ring far inside one pixel is zero at every grid point
    if not peak > 0.0:
        raise SimulationError(
            f"vortex mode of waist {beam.waist_m:.3g} m vanishes on every "
            f"grid point")
    return TransverseField(grid, values / peak)


@dataclass(frozen=True)
class CouplingMap:
    """Position-dependent two-photon Rabi rate for one beam pair.

    omega holds the complex rate in rad/s at each grid point.  Everything
    a pulse needs is read from it: its phase is the optical phase written
    on each upward ladder step, so its winding about the beam axis is the
    angular momentum (in units of hbar) handed to an atom per step, and
    max |omega| is the peak rate.  Every value of omega must be finite.
    """

    omega: TransverseField

    def __post_init__(self):
        if not np.isfinite(self.omega.values).all():
            raise SimulationError("coupling map holds NaN or inf")


def coupling_map(beam_a: BeamSpec, beam_b: BeamSpec, peak_rate_rad_s: float,
                 rel_phase: float, grid: Grid2D) -> CouplingMap:
    """Two-photon Rabi map Omega = Omega_0 * u_a * conj(u_b) * e^{i phase}.

    The product of unit-peak modes is renormalized so its largest modulus is
    exactly peak_rate_rad_s, which must be finite and > 0.  The winding
    handed over per ladder step is l_a - l_b.
    """
    if not math.isfinite(rel_phase):
        raise SimulationError(f"relative phase {rel_phase} is not finite")
    # written as not (0 < x < inf) so that NaN is rejected too
    if not 0.0 < peak_rate_rad_s < math.inf:
        raise SimulationError("peak Rabi rate must be finite and positive")
    step = beam_a.winding - beam_b.winding
    if abs(step) > MAX_WINDING:
        raise SimulationError(
            f"winding transfer {step} per step exceeds the supported "
            f"ladder bookkeeping (|step| <= {MAX_WINDING})")
    u_a = mode_field(beam_a, grid).values
    u_b = mode_field(beam_b, grid).values
    product = u_a * np.conj(u_b)
    peak = np.abs(product).max()
    if not peak > 0.0:
        raise SimulationError("beam product vanishes on the whole grid")
    omega = product * (peak_rate_rad_s / peak * np.exp(1j * rel_phase))
    return CouplingMap(TransverseField(grid, omega))


def scaled_coupling(coupling: CouplingMap, factor: complex) -> CouplingMap:
    """The same map times a constant factor.

    |factor| scales the peak rate; arg(factor) turns the phase of omega,
    which is what a phase of arg(factor) on the absorbed beam does.
    """
    return CouplingMap(
        TransverseField(coupling.omega.grid, coupling.omega.values * factor))


def uniform_coupling(peak_rate_rad_s: float, grid: Grid2D) -> CouplingMap:
    """Constant-over-the-grid, real coupling: the plane-wave textbook
    limit, with no phase winding.  peak_rate_rad_s must be finite and > 0;
    scaled_coupling turns its phase."""
    if not 0.0 < peak_rate_rad_s < math.inf:
        raise SimulationError("peak Rabi rate must be finite and positive")
    return CouplingMap(TransverseField(
        grid, np.full(grid.shape, peak_rate_rad_s, dtype=np.complex128)))


def _ring_lobe_angle(intensity: np.ndarray, grid: Grid2D,
                     radius_m: float) -> float:
    """Azimuth of the angular intensity maximum on a centered ring.

    Intensity-weighted circular mean, exact for a single sinusoidal lobe;
    returns 0.0 for an angularly flat ring (no lobe to point at).
    """
    phi, ring = ring_samples(intensity, grid, radius_m, 512)
    resultant = np.sum(ring * np.exp(1j * phi))
    if abs(resultant) < 1e-9 * max(ring.sum(), 1e-300):
        return 0.0
    return float(np.angle(resultant))


def phase_readout_pattern(beam_lg: BeamSpec, beam_g_copropagating: BeamSpec,
                          rel_phase: float, grid: Grid2D
                          ) -> tuple[ImagePlane, float]:
    """Co-propagating beam interference used as the optical phase reference.

    The pattern |u_lg e^{i rel_phase} + u_g|^2 has a single angular lobe on
    the vortex ring at phi = -rel_phase.  Returns the unit-peak image and
    that extracted lobe angle in (-pi, pi].
    """
    if not math.isfinite(rel_phase):
        raise SimulationError(f"relative phase {rel_phase} is not finite")
    pitch = _require_square_pixels(grid)
    u_lg = mode_field(beam_lg, grid).values
    u_g = mode_field(beam_g_copropagating, grid).values
    intensity = np.abs(u_lg * np.exp(1j * rel_phase) + u_g) ** 2
    peak = intensity.max()
    ring_radius_m = beam_lg.waist_m / math.sqrt(2.0)
    angle = _ring_lobe_angle(intensity, grid, ring_radius_m)
    image = ImagePlane(intensity / peak, pitch, label="phase_readout")
    return image, angle
