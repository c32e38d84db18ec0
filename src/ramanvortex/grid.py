"""Transverse grid, complex fields, momentum-ladder states, field I/O and
the one split-step loop, run in real time by pulses, delays and time of
flight and in imaginary time by ground-state relaxation.

Arrays are indexed [iz, iy]: axis 0 runs along z, axis 1 along y, so a
C-order flattening walks y fastest.  Grid axes are FFT-periodic (cell
centers, no endpoint duplication) and are precomputed both in meters and
in internal recoil-units of length.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .units import UnitSystem

DUMP_SCHEMA_VERSION = 1

def fft_workers() -> int:
    # numpy's FFT has no worker option: every transform runs on one
    # thread.  perfbench/worker.py::_versions records this count.
    return 1


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


class Grid2D:
    """Uniform periodic (y, z) grid with precomputed spectral axes.

    Args:
        n_y, n_z: sample counts, powers of two.
        extent_y_m, extent_z_m: physical box sides in meters.
        units: recoil unit system used for the internal axes.

    Attributes (all arrays read-only):
        y_m, z_m: 1D axes in meters, centered on zero.
        y, z: the same axes in internal lengths.
        mesh_y, mesh_z: 2D meshes, shape (n_z, n_y), internal lengths.
        k_y, k_z: angular wavenumbers per internal length (FFT order).
        mesh_ksq: k_y^2 + k_z^2 mesh.
        cell_area: internal area element dy * dz.
        pitch_y_m, pitch_z_m: sample spacing in meters.
    """

    def __init__(self, n_y: int, n_z: int, extent_y_m: float, extent_z_m: float,
                 units: UnitSystem):
        if not _is_power_of_two(n_y) or not _is_power_of_two(n_z):
            raise ValueError(f"grid sizes must be powers of two, got {n_y} x {n_z}")
        if not (0.0 < extent_y_m < math.inf and 0.0 < extent_z_m < math.inf):
            raise ValueError("grid extents must be finite and positive")
        self.n_y = int(n_y)
        self.n_z = int(n_z)
        self.extent_y_m = float(extent_y_m)
        self.extent_z_m = float(extent_z_m)
        self.units = units

        self.pitch_y_m = self.extent_y_m / self.n_y
        self.pitch_z_m = self.extent_z_m / self.n_z
        self.y_m = (np.arange(self.n_y) - self.n_y // 2) * self.pitch_y_m
        self.z_m = (np.arange(self.n_z) - self.n_z // 2) * self.pitch_z_m

        scale = 1.0 / units.length_m
        self.y = self.y_m * scale
        self.z = self.z_m * scale
        self.dy = self.pitch_y_m * scale
        self.dz = self.pitch_z_m * scale
        self.cell_area = self.dy * self.dz

        self.mesh_z, self.mesh_y = np.meshgrid(self.z, self.y, indexing="ij")
        ky = 2.0 * math.pi * np.fft.fftfreq(self.n_y, d=self.dy)
        kz = 2.0 * math.pi * np.fft.fftfreq(self.n_z, d=self.dz)
        self.k_y = ky
        self.k_z = kz
        self.mesh_ksq = ky[None, :] ** 2 + kz[:, None] ** 2

        for arr in (self.y_m, self.z_m, self.y, self.z, self.mesh_y, self.mesh_z,
                    self.k_y, self.k_z, self.mesh_ksq):
            arr.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_z, self.n_y)

    def same_geometry(self, other: "Grid2D") -> bool:
        return (self.n_y == other.n_y and self.n_z == other.n_z
                and self.extent_y_m == other.extent_y_m
                and self.extent_z_m == other.extent_z_m)

    def padded(self, factor: float) -> "Grid2D":
        """Grid with >= factor times the extent at identical spacing."""
        # written as not (a <= x < inf) so that NaN and inf raise too
        if not 1.0 <= factor < math.inf:
            raise ValueError(f"padding factor {factor} is not finite and >= 1")
        n_y = self.n_y
        n_z = self.n_z
        while n_y < self.n_y * factor:
            n_y *= 2
        while n_z < self.n_z * factor:
            n_z *= 2
        return Grid2D(n_y, n_z, self.pitch_y_m * n_y, self.pitch_z_m * n_z, self.units)

    def __repr__(self):
        return (f"Grid2D({self.n_y}x{self.n_z}, "
                f"{self.extent_y_m * 1e6:.1f}x{self.extent_z_m * 1e6:.1f} um)")


@dataclass(frozen=True)
class TransverseField:
    """One complex field on a Grid2D.

    values has shape (n_z, n_y).  For atomic fields the normalization
    convention is sum |psi|^2 * cell_area = 1 (a unit fraction); optical
    mode fields are unit-peak instead.  values is stored read-only.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise SimulationError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}")
        if not vals.flags.owndata or vals.flags.writeable:
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


class LadderState:
    """Coupled momentum-order fields psi_n, n in [-n_max, n_max].

    Order n carries axial momentum 2 n hbar k.  Components are stored as a
    stacked (2 n_max + 1, n_z, n_y) complex array; component(n) exposes a
    single order as a TransverseField.  axial_shift_m, when set by time of
    flight, records each order's axial displacement; imaging adds orders
    whose shifts differ as densities and orders that share one as
    amplitudes.
    """

    def __init__(self, grid: Grid2D, n_max: int, values: np.ndarray | None = None,
                 axial_shift_m: dict[int, float] | None = None):
        # written as not (good range) so that NaN and inf trip it too
        if not 1 <= n_max < math.inf:
            raise ValueError(f"n_max must be finite and >= 1, got {n_max}")
        if n_max != int(n_max):
            raise ValueError(f"n_max must be an integer, got {n_max}")
        self.grid = grid
        self.n_max = int(n_max)
        k = 2 * self.n_max + 1
        if values is None:
            values = np.zeros((k,) + grid.shape, dtype=np.complex128)
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (k,) + grid.shape:
            raise SimulationError(
                f"ladder shape {values.shape} does not match "
                f"({k},) + {grid.shape}")
        self.values = values
        self.axial_shift_m = dict(axial_shift_m) if axial_shift_m else None

    @classmethod
    def from_single_order(cls, field: TransverseField, n_max: int,
                          order: int = 0) -> "LadderState":
        state = cls(field.grid, n_max)
        state.values[state.index(order)] = field.values
        return state

    @property
    def orders(self) -> range:
        return range(-self.n_max, self.n_max + 1)

    def index(self, n: int) -> int:
        if not -self.n_max <= n <= self.n_max:
            raise SimulationError(f"order {n} outside ladder (n_max={self.n_max})")
        return n + self.n_max

    def component(self, n: int) -> TransverseField:
        return TransverseField(self.grid, self.values[self.index(n)])

    def total_density(self) -> np.ndarray:
        return _density(self.values)

    def population(self, n: int) -> float:
        return float(np.sum(np.abs(self.values[self.index(n)]) ** 2)
                     * self.grid.cell_area)


def _density(values: np.ndarray, rho: np.ndarray | None = None,
             term: np.ndarray | None = None) -> np.ndarray:
    """sum_n |values[n]|^2 over a stack, added one order at a time into
    one plane: bitwise np.sum(np.abs(values) ** 2, axis=0), with no
    stack-sized temporaries.  rho and term, when given, are real planes
    of the stack's plane shape that it fills in place (rho is returned)
    instead of making its own."""
    if rho is None:
        rho = np.empty(values.shape[1:])
        term = np.empty_like(rho)
    rho.fill(0.0)
    for n in range(len(values)):
        np.abs(values[n], out=term)
        np.square(term, out=term)
        rho += term
    return rho


# The stack transforms make one numpy.fft 1-D call per axis, each writing
# through out=: forward along y (rows, axis -1) then z (axis -2), as
# numpy's fftn and rfftn do, and back along z then y, as its irfftn does.
# Two such calls cost less than one fftn call: 9 against 18 us of
# overhead, measured on a 2 x 2 plane.

def _fft2_stack(values: np.ndarray) -> np.ndarray:
    # Orthonormal so Parseval sums need no grid-size factors.  values is
    # one plane or a stack of them.  A complex stack is transformed in
    # place and returned, as in _ifft2_stack, so callers pass a temporary.
    # A real stack takes the half spectrum (rfft along y): columns
    # 0 .. n_y/2 of the y axis, a new array; values is only read.
    if np.isrealobj(values):
        rows = np.fft.rfft
        out = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,),
                       dtype=np.complex128)
    else:
        rows, out = np.fft.fft, values
    rows(values, axis=-1, norm="ortho", out=out)
    return np.fft.fft(out, axis=-2, norm="ortho", out=out)


def _ifft2_stack(values: np.ndarray, n_y: int | None = None) -> np.ndarray:
    # In place: values is overwritten, so callers pass a temporary, and a
    # complex stack is returned.  Given n_y, values is the half spectrum of
    # a real stack with n_y columns, and the inverse (irfft along y) is
    # that real stack, a new array.
    if n_y is None:
        rows, out = np.fft.ifft, values
    else:
        rows, out = np.fft.irfft, np.empty(values.shape[:-1] + (n_y,))
    np.fft.ifft(values, axis=-2, norm="ortho", out=values)
    return rows(values, n=n_y, axis=-1, norm="ortho", out=out)


# Phase advance allowed per split step at the stiffest split-off rate.
MAX_PHASE_PER_STEP = 0.1


def _free_flight(spec: np.ndarray, ksq: np.ndarray, times: np.ndarray) -> None:
    """Exact free flight of a stack's spectrum, in place: order n for
    times[n], one phase per distinct time."""
    phases = {}
    for n, t in enumerate(times):
        if t not in phases:
            phases[t] = np.exp(-1j * t * ksq)
        spec[n] *= phases[t]


def _strang_steps(values: np.ndarray, ksq: np.ndarray, tau: complex | float,
                  g: float, potential: np.ndarray | None = None, ladder=None):
    """Strang steps of a (dim, n_z, n_y) order stack, without end.

    tau is the step exponent, i dt in real time and dt in imaginary time,
    where every factor is real.  A real stack (which needs a real tau)
    therefore stays real and takes half-spectrum transforms, rfft2 on the
    half plane ksq[:, :n_y/2 + 1]; spec is then its half spectrum.  Each
    step is a kinetic half-step e^{-tau ksq / 2}, the position-space step
    and another half-step.  The position-space step multiplies by phase =
    e^{-tau (V + g rho)}, which is the identity in order space and so
    commutes with the ladder.  When a ladder is given, its
    apply(flat, phase) does both in place on the (dim, n_points) view of
    the stack: the exact per-point ladder exponential, then the phase.

    Yields (spec, pending) at each step boundary, before the first step
    and after each one: the state there is spec * pending (pending is 1.0
    at the start, the closing half-step after that).  The caller may scale
    spec in place; resuming applies the half-steps between two steps as
    one merged factor.  To end, the caller multiplies the last spec by
    pending and transforms back.

    values is consumed.  A complex stack is transformed in place, forward
    and back, so callers hand over a temporary (state.values.copy()) and
    the loop holds that one buffer through every step, with the density,
    its term and the phase as planes beside it, made once.  A real stack
    is only read (rfft2 cannot run in place) and released once
    transformed; as each transform makes a new stack, each step makes
    new planes too, and drops them before it yields, where the
    relaxation reads its energies beside its ring.
    """
    n_y = values.shape[-1] if np.isrealobj(values) else None
    if n_y is not None:
        ksq = ksq[:, :n_y // 2 + 1]
    half = np.exp(-0.5 * tau * ksq)
    full = half * half
    shape = values.shape[1:]

    def planes():
        # the density, its term and the phase
        rho = np.empty(shape)
        return rho, np.empty_like(rho), np.empty(shape, np.result_type(tau))

    spec = _fft2_stack(values)
    del values
    yield spec, 1.0
    # A complex stack's planes are made once, after the first yield, and
    # refilled in place: fresh planes each step are fresh pages wherever
    # the allocator maps them afresh (680 faults a step at 256^2).
    held = planes() if n_y is None else None
    spec *= half
    while True:
        values = _ifft2_stack(spec, n_y)
        del spec
        scalar, term, phase = held or planes()
        _density(values, scalar, term)
        scalar *= g
        if potential is not None:
            scalar += potential
        # copied, then scaled: np.multiply(-tau, scalar, out=phase) would
        # cast through a 128 KiB buffer of its own on every call
        phase[...] = scalar
        phase *= -tau
        np.exp(phase, out=phase)
        if ladder is None:
            values *= phase
        else:
            values = ladder.apply(values.reshape(len(values), -1),
                                  phase.ravel()).reshape(values.shape)
        del scalar, term, phase
        spec = _fft2_stack(values)
        del values
        yield spec, half
        spec *= full


def _strang_finish(steps, n_steps: int) -> np.ndarray:
    """Runs a _strang_steps generator whose first yield was taken through
    n_steps >= 1 steps and ends in momentum space: returns the spectrum.
    Costs 2 n_steps FFTs."""
    # Yields are dropped at once: a spectrum kept across a step would hold
    # an extra stack through the ladder product.
    for _ in range(n_steps - 1):
        next(steps)
    spec, pending = next(steps)
    spec *= pending
    return spec


def _high_k_share(spec: np.ndarray, grid: Grid2D) -> float:
    """Share of the norm at |k| above half the Nyquist radius
    (pi / max(dy, dz), the largest disc inside the grid's wavenumbers),
    read off the orthonormal spectrum of one plane or a stack on grid.
    Smooth states put a share there that falls fast with the pitch, a
    kinked edge (the Thomas-Fermi parabola's) a large one."""
    cut = 0.5 * math.pi / max(grid.dy, grid.dz)
    dens = _density(spec.reshape((-1,) + grid.shape))
    return float(dens[grid.mesh_ksq > cut * cut].sum() / dens.sum())


def _strang_evolve(values: np.ndarray, ksq: np.ndarray, dt: float,
                   n_steps: int, g: float, potential: np.ndarray | None = None,
                   ladder=None) -> np.ndarray:
    """n_steps real-time Strang steps (_strang_steps with tau = i dt),
    transformed back: the loop of pulses and delays.  Costs 2 n_steps + 2
    FFTs.  values is consumed, as in _strang_steps: the result is
    computed in its buffer."""
    steps = _strang_steps(values, ksq, 1j * dt, g, potential, ladder)
    del values
    next(steps)
    spec = _strang_finish(steps, n_steps)
    # the generator's planes (and a pulse's ladder) go before the last
    # transform
    del steps
    return _ifft2_stack(spec)


def _axial_phase(values: np.ndarray, t: float) -> None:
    """Multiply order n of a (2 n_max + 1, n_z, n_y) stack by e^{-4i n^2 t}
    in place: the axial kinetic energy 4 n^2 of 2 n photon recoils, global
    over the plane and so applied exactly."""
    n_max = len(values) // 2
    n = np.arange(-n_max, n_max + 1)
    values *= np.exp(-4.0j * t * n**2)[:, None, None]


def bilinear_sample(values: np.ndarray, y_axis: np.ndarray, z_axis: np.ndarray,
                    y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of values[iz, iy] at points (y, z).

    Axes must be uniform ascending. Points outside the axes or not finite
    raise, since every caller is expected to keep its loops inside the
    grid.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    dy = y_axis[1] - y_axis[0]
    dz = z_axis[1] - z_axis[0]
    fy = (y - y_axis[0]) / dy
    fz = (z - z_axis[0]) / dz
    # Tolerate float rounding for points sitting exactly on the last sample.
    # Written as not (a <= x <= b) so that NaN points raise too.
    tol = 1e-9
    if not (-tol <= fy.min() and fy.max() <= len(y_axis) - 1 + tol
            and -tol <= fz.min() and fz.max() <= len(z_axis) - 1 + tol):
        raise SimulationError(
            "sample points fall outside the grid or are not finite")
    fy = np.clip(fy, 0.0, len(y_axis) - 1)
    fz = np.clip(fz, 0.0, len(z_axis) - 1)
    iy0 = np.clip(np.floor(fy).astype(int), 0, len(y_axis) - 2)
    iz0 = np.clip(np.floor(fz).astype(int), 0, len(z_axis) - 2)
    ty = fy - iy0
    tz = fz - iz0
    v00 = values[iz0, iy0]
    v01 = values[iz0, iy0 + 1]
    v10 = values[iz0 + 1, iy0]
    v11 = values[iz0 + 1, iy0 + 1]
    return ((1 - tz) * ((1 - ty) * v00 + ty * v01)
            + tz * ((1 - ty) * v10 + ty * v11))


def ring_samples(values: np.ndarray, grid: Grid2D, radius_m: float,
                 n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear samples of values[iz, iy] at n_samples equally spaced
    angles on the circle of radius_m about the grid origin; returns
    (angles, samples)."""
    scale = grid.units.length_m
    angles = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    y = radius_m * np.cos(angles) / scale
    z = radius_m * np.sin(angles) / scale
    return angles, bilinear_sample(values, grid.y, grid.z, y, z)


# ---------------------------------------------------------------------------
# Binary field dump: little-endian float64 (re, im) pairs, row-major with y
# fastest, plus a key=value text sidecar carrying grid geometry and units.
# ---------------------------------------------------------------------------

def _sidecar_path(path: str) -> str:
    return str(path) + ".meta"


def save_field(field: TransverseField, path: str, units: UnitSystem,
               component_index: int | None = None, label: str = "") -> None:
    """Write a field to `path` (binary) and `path`.meta (text sidecar).

    Values are stored in SI units of 1/m (internal amplitudes times k) so
    that the file is self-describing: sum |psi|^2 dy dz over the stated
    extents is the stored fraction of the cloud.
    """
    grid = field.grid
    si_values = field.values * units.wavenumber_per_m
    pairs = np.empty(grid.shape + (2,), dtype="<f8")
    pairs[..., 0] = si_values.real
    pairs[..., 1] = si_values.imag
    with open(path, "wb") as f:
        f.write(pairs.tobytes(order="C"))
    write_sidecar(path, {
        "schema_version": DUMP_SCHEMA_VERSION,
        "kind": "field_dump",
        "dtype": "float64_le_re_im_pairs",
        "layout": "row_major_y_fastest",
        "value_units": "m^-1",
        "n_y": grid.n_y,
        "n_z": grid.n_z,
        "extent_y_m": grid.extent_y_m,
        "extent_z_m": grid.extent_z_m,
        "length_unit_m": units.length_m,
        "component_index": "" if component_index is None else component_index,
        "label": label,
    })


def write_sidecar(path: str, meta: Mapping[str, object]) -> None:
    """Write `path`.meta: one key=value text line per entry, in order.
    Floats print at repr round-trip precision."""
    with open(_sidecar_path(path), "w") as f:
        f.write("".join(f"{key}={value}\n" for key, value in meta.items()))


def read_sidecar(path: str, required: tuple[str, ...] = ()) -> dict[str, str]:
    """Read `path`.meta into a dict; raises SimulationError naming every
    key of `required` that it lacks."""
    meta = {}
    with open(_sidecar_path(path)) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            meta[key] = value
    missing = sorted(set(required) - meta.keys())
    if missing:
        raise SimulationError(f"{path}: sidecar lacks {', '.join(missing)}")
    return meta


def sidecar_number(path: str, meta: Mapping[str, str], key: str) -> float:
    """meta[key] of `path`'s sidecar as a float; raises SimulationError
    naming the file and the key if it is not a finite number."""
    try:
        value = float(meta[key])
    except ValueError:
        raise SimulationError(f"{path}: sidecar {key}={meta[key]!r} "
                              f"is not a number") from None
    if not math.isfinite(value):
        raise SimulationError(f"{path}: sidecar {key}={meta[key]!r} "
                              f"is not finite")
    return value


def load_field(path: str, units: UnitSystem) -> tuple[TransverseField, dict[str, str]]:
    """Read a dumped field back; returns the field and its sidecar dict.
    Raises SimulationError if that lacks n_y, n_z, extent_y_m or
    extent_z_m, if n_y or n_z is not a power of two >= 2, or if an extent
    is not a finite positive number."""
    meta = read_sidecar(path, ("n_y", "n_z", "extent_y_m", "extent_z_m"))
    for key in ("n_y", "n_z"):
        if not (meta[key].isdecimal() and _is_power_of_two(int(meta[key]))):
            raise SimulationError(f"{path}: sidecar {key}={meta[key]!r} "
                                  f"is not a power of two >= 2")
    extents = []
    for key in ("extent_y_m", "extent_z_m"):
        extent = sidecar_number(path, meta, key)
        # written as not (0 < x < inf) so that NaN is rejected too
        if not 0.0 < extent < math.inf:
            raise SimulationError(f"{path}: sidecar {key}={meta[key]!r} "
                                  f"is not a finite positive number")
        extents.append(extent)
    n_y, n_z = int(meta["n_y"]), int(meta["n_z"])
    grid = Grid2D(n_y, n_z, *extents, units)
    raw = np.fromfile(path, dtype="<f8")
    expected = 2 * n_y * n_z
    if raw.size != expected:
        raise SimulationError(
            f"field dump {path} holds {raw.size} floats, expected {expected}")
    pairs = raw.reshape(n_z, n_y, 2)
    si_values = pairs[..., 0] + 1j * pairs[..., 1]
    values = si_values / units.wavenumber_per_m
    return TransverseField(grid, values), meta
