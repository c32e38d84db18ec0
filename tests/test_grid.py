"""Grid geometry, spectral transform unitarity, ladder states, field dumps."""

import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ramanvortex import condensate, dynamics, grid as grid_module, imaging
from ramanvortex.condensate import (TrapSpec, g2d_from_tf_radius,
                                    relax_ground_state, thomas_fermi_profile)
from ramanvortex.dynamics import PulseSpec, evolve_pulse
from ramanvortex.errors import SimulationError
from ramanvortex.grid import (Grid2D, TransverseField, LadderState, save_field,
                              load_field, read_sidecar, _fft2_stack,
                              _ifft2_stack)
from ramanvortex.optics import uniform_coupling


def field_norm(field: TransverseField) -> float:
    """sum |psi|^2 * cell_area, the atomic fields' norm."""
    return float(np.sum(np.abs(field.values) ** 2) * field.grid.cell_area)


def normalized(field: TransverseField) -> TransverseField:
    """field scaled to unit norm."""
    return TransverseField(field.grid,
                           field.values / math.sqrt(field_norm(field)))


def random_normalized_field(grid, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return normalized(TransverseField(grid, vals))


def test_grid_requires_power_of_two(units):
    with pytest.raises(ValueError):
        Grid2D(100, 64, 1e-4, 1e-4, units)
    with pytest.raises(ValueError):
        Grid2D(64, 96, 1e-4, 1e-4, units)
    with pytest.raises(ValueError):
        Grid2D(64, 64, -1e-4, 1e-4, units)


def test_grid_axes_centered_and_uniform(grid64):
    g = grid64
    assert g.y_m[g.n_y // 2] == 0.0
    assert g.z_m[g.n_z // 2] == 0.0
    dy = np.diff(g.y_m)
    assert np.allclose(dy, g.pitch_y_m, rtol=0, atol=1e-20)
    # internal axes are the SI axes divided by the length unit
    assert g.y[-1] == pytest.approx(g.y_m[-1] / g.units.length_m, rel=1e-14)
    assert g.cell_area == pytest.approx(g.dy * g.dz, rel=1e-15)


def test_mesh_orientation(grid64):
    # arrays are [iz, iy]: mesh_y varies along axis 1, mesh_z along axis 0
    g = grid64
    assert np.all(g.mesh_y[0, :] == g.y)
    assert np.all(g.mesh_z[:, 0] == g.z)


def test_spectral_transform_unitary_and_invertible(grid64, rng):
    # the stacked transform pair every integrator uses, on a ladder stack
    f = random_normalized_field(grid64, rng)
    stack = np.stack([f.values, 1j * f.values[::-1]])
    ft = _fft2_stack(stack.copy())
    # orthonormal DFT preserves the discrete L2 sum of each component
    np.testing.assert_allclose(np.sum(np.abs(ft) ** 2, axis=(1, 2)),
                               np.sum(np.abs(stack) ** 2, axis=(1, 2)),
                               rtol=1e-12)
    back = _ifft2_stack(ft)
    assert np.max(np.abs(back - stack)) < 1e-12


def test_spectral_transform_plane_wave_is_single_bin(grid64):
    g = grid64
    iy = 5
    wave = np.exp(1j * g.k_y[iy] * g.mesh_y)
    power = np.abs(_fft2_stack(wave[None])[0]) ** 2
    assert power[0, iy] == pytest.approx(power.sum(), rel=1e-12)


def test_complex_pair_returns_the_buffer_it_was_handed(grid64, rng):
    stack = (rng.standard_normal((3,) + grid64.shape)
             + 1j * rng.standard_normal((3,) + grid64.shape))
    expected = np.fft.fftn(stack, axes=(-2, -1), norm="ortho")
    buffer = stack.copy()
    assert _fft2_stack(buffer) is buffer
    assert np.array_equal(buffer, expected)
    assert _ifft2_stack(buffer) is buffer
    assert np.max(np.abs(buffer - stack)) < 1e-12


def test_import_loads_no_scipy():
    # scipy is needed only by the image blur, which imports it lazily
    src = os.path.dirname(os.path.dirname(grid_module.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, ramanvortex; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True,
        timeout=120).stdout
    assert loaded.strip() == "[]"


def test_field_shape_mismatch_raises(grid64, units):
    small = np.zeros((8, 8), dtype=complex)
    with pytest.raises(SimulationError):
        TransverseField(grid64, small)


def test_field_values_read_only(grid64, rng):
    f = random_normalized_field(grid64, rng)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_field_norm_scalar_and_ladder(grid64, rng):
    f = random_normalized_field(grid64, rng)
    assert field_norm(f) == pytest.approx(1.0, rel=1e-12)

    state = LadderState.from_single_order(f, n_max=2)
    pops = {n: state.population(n) for n in state.orders}
    assert set(pops) == {-2, -1, 0, 1, 2}
    assert pops[0] == pytest.approx(1.0, rel=1e-12)
    assert sum(pops.values()) == pytest.approx(1.0, rel=1e-12)
    assert pops[1] == 0.0


def test_ladder_component_roundtrip(grid64, rng):
    f = random_normalized_field(grid64, rng)
    state = LadderState.from_single_order(f, n_max=1, order=1)
    assert np.array_equal(state.component(1).values, f.values)
    assert state.population(-1) == 0.0
    with pytest.raises(SimulationError):
        state.component(2)


def test_padded_grid_keeps_spacing(grid64):
    g = grid64.padded(2.0)
    assert g.n_y == 2 * grid64.n_y
    assert g.pitch_y_m == pytest.approx(grid64.pitch_y_m, rel=1e-15, abs=0)
    assert g.extent_y_m == pytest.approx(2 * grid64.extent_y_m, rel=1e-15,
                                         abs=0)
    with pytest.raises(ValueError):
        grid64.padded(0.5)


def test_field_dump_round_trip(tmp_path, grid64, units, rng):
    f = random_normalized_field(grid64, rng)
    path = str(tmp_path / "state.f64")
    save_field(f, path, units, component_index=1, label="order 1")
    loaded, meta = load_field(path, units)
    assert loaded.grid.same_geometry(grid64)
    assert np.max(np.abs(loaded.values - f.values)) < 1e-15 * np.max(np.abs(f.values)) + 1e-18
    assert meta["component_index"] == "1"
    assert meta["value_units"] == "m^-1"
    assert meta["layout"] == "row_major_y_fastest"


def test_field_dump_layout_y_fastest(tmp_path, grid64, units):
    # mark a single sample and check its flat position in the file
    vals = np.zeros(grid64.shape, dtype=complex)
    iz, iy = 3, 7
    vals[iz, iy] = 2.0 + 1.0j
    path = str(tmp_path / "probe.f64")
    save_field(TransverseField(grid64, vals), path, units)
    raw = np.fromfile(path, dtype="<f8").reshape(-1, 2)
    flat = iz * grid64.n_y + iy
    si = 2.0 * units.wavenumber_per_m
    assert raw[flat, 0] == pytest.approx(si, rel=1e-15)
    assert raw[flat, 1] == pytest.approx(si / 2.0, rel=1e-15)
    nonzero = np.flatnonzero(np.abs(raw).sum(axis=1))
    assert list(nonzero) == [flat]


def test_field_dump_truncated_file_raises(tmp_path, grid64, units, rng):
    f = random_normalized_field(grid64, rng)
    path = str(tmp_path / "broken.f64")
    save_field(f, path, units)
    data = open(path, "rb").read()
    with open(path, "wb") as out:
        out.write(data[: len(data) // 2])
    with pytest.raises(SimulationError):
        load_field(path, units)


@pytest.mark.parametrize("key", ["n_y", "n_z", "extent_y_m", "extent_z_m"])
def test_field_dump_missing_geometry_key_raises(tmp_path, grid64, units, rng,
                                                key):
    path = str(tmp_path / "field.f64")
    save_field(random_normalized_field(grid64, rng), path, units)
    with open(path + ".meta") as fh:
        lines = [line for line in fh if not line.startswith(key + "=")]
    with open(path + ".meta", "w") as fh:
        fh.writelines(lines)
    with pytest.raises(SimulationError, match=key):
        load_field(path, units)


def dump_with_sidecar_value(tmp_path, grid, units, rng, key, value):
    """Dump a random field and set one key of its sidecar to value."""
    path = str(tmp_path / "field.f64")
    save_field(random_normalized_field(grid, rng), path, units)
    with open(path + ".meta") as fh:
        lines = [f"{key}={value}\n" if line.startswith(key + "=") else line
                 for line in fh]
    with open(path + ".meta", "w") as fh:
        fh.writelines(lines)
    return path


@pytest.mark.parametrize("key", ["n_y", "n_z"])
@pytest.mark.parametrize("size", ["thirty", "48", "0", "8.0"])
def test_field_dump_bad_size_raises(tmp_path, grid64, units, rng, key, size):
    path = dump_with_sidecar_value(tmp_path, grid64, units, rng, key, size)
    with pytest.raises(SimulationError, match=f"field.f64.*{key}"):
        load_field(path, units)


@pytest.mark.parametrize("key", ["extent_y_m", "extent_z_m"])
@pytest.mark.parametrize("extent", ["wide", "nan", "inf", "-1", "0"])
def test_field_dump_bad_extent_raises(tmp_path, grid64, units, rng, key,
                                      extent):
    path = dump_with_sidecar_value(tmp_path, grid64, units, rng, key, extent)
    with pytest.raises(SimulationError, match=f"field.f64.*{key}"):
        load_field(path, units)


def test_sidecar_readable(tmp_path, grid64, units, rng):
    f = random_normalized_field(grid64, rng)
    path = str(tmp_path / "meta.f64")
    save_field(f, path, units)
    meta = read_sidecar(path)
    assert int(meta["n_y"]) == grid64.n_y
    assert float(meta["extent_y_m"]) == pytest.approx(grid64.extent_y_m, rel=1e-15, abs=0)


class TestSplitStepFftCount:
    """The one split-step loop's FFT budget: 2 n + 2 for an n-step pulse
    (half-steps merged between steps), 1 + 2 N + M for an N-step
    relaxation that reads M energies (norm and kinetic energy read from
    the spectrum, one inverse FFT for each energy read), 2 n + 3 for a
    time of flight with an n-step mean-field window on the padded grid
    (the in-trap transform its high-k share is read from, then free flight
    applied to the window's last spectrum), plus one forward transform
    for the orders the window skips.  Each call is recorded as (name,
    dtype, shape) of the array it is given."""

    @pytest.fixture()
    def fft_calls(self, monkeypatch):
        calls = []
        for name in ("_fft2_stack", "_ifft2_stack"):
            original = getattr(grid_module, name)

            def counted(values, *args, _original=original):
                calls.append((_original.__name__, values.dtype, values.shape))
                return _original(values, *args)

            for module in (grid_module, condensate, imaging):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.fixture()
    def grid32(self, units):
        return Grid2D(32, 32, 160e-6, 160e-6, units)

    @pytest.fixture()
    def trap(self):
        return TrapSpec(40.0 / math.sqrt(2.0), 40.0)

    def test_relaxation_costs_2n_plus_1_and_one_per_energy_read(
            self, grid32, trap, units, fft_calls, caplog, monkeypatch):
        g2d = g2d_from_tf_radius(trap, 30e-6, units)
        seed = thomas_fermi_profile(trap, g2d, grid32)
        monkeypatch.setattr(condensate, "_RELAX_TOL", 1e-6)
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.condensate"):
            relax_ground_state(seed, trap, g2d)
        (record,) = caplog.records
        stop, reads = map(int, re.match(
            r"ground state relaxed in (\d+) steps \(energy read at (\d+)\)",
            record.getMessage()).groups())
        # the flow runs on to the end of the window of K that stops
        every = condensate._STOP_CHECK_EVERY
        steps = every * math.ceil(stop / every)
        assert stop > 10
        assert len(fft_calls) == 1 + 2 * steps + reads
        # the loop runs on real rows: forward transforms get real arrays,
        # inverse ones half spectra, and none a complex full plane
        assert {(name, dtype.kind, shape[-2:])
                for name, dtype, shape in fft_calls} == {
            ("_fft2_stack", "f", grid32.shape),
            ("_ifft2_stack", "c", (grid32.n_z, grid32.n_y // 2 + 1))}

    def test_pulse_costs_2n_plus_2(self, grid32, trap, units, fft_calls,
                                   monkeypatch):
        steps = []
        apply = dynamics._LadderPropagator.apply
        monkeypatch.setattr(dynamics._LadderPropagator, "apply",
                            lambda self, flat, phase: steps.append(1) or apply(
                                self, flat, phase))
        state = LadderState.from_single_order(
            thomas_fermi_profile(trap, g2d_from_tf_radius(trap, 30e-6, units),
                                 grid32).field, 2)
        pulse = PulseSpec(uniform_coupling(2.0e4, grid32), 4.0, 2e-5)
        evolve_pulse(state, pulse, trap, 0.0)
        assert len(steps) > 1
        assert len(fft_calls) == 2 * len(steps) + 2

    @staticmethod
    def fly(grid32, trap, units, caplog, empty_rows, resolved=False):
        """Time of flight of a Thomas-Fermi cloud spread over orders -1..1,
        with the given rows empty; returns the window's step count.  With
        resolved, the cloud is a Gaussian of 2.5 pitches at the g of a
        20 um cloud instead, whose window runs on the in-trap grid (high-k
        share 2.8e-7, in-trap boundary mass 1.1-1.6e-14)."""
        g2d = g2d_from_tf_radius(trap, 30e-6, units)
        cloud = thomas_fermi_profile(trap, g2d, grid32).field.values
        if resolved:
            w = 2.5 * grid32.dy
            cloud = np.exp(-(grid32.mesh_y**2 + grid32.mesh_z**2)
                           / (2.0 * w * w)) / (math.sqrt(math.pi) * w)
            g2d = g2d_from_tf_radius(trap, 20e-6, units)
        state = LadderState(grid32, 1)
        state.values[:] = cloud / math.sqrt(3.0)
        state.values[empty_rows] = 0.0
        with caplog.at_level(logging.DEBUG, logger="ramanvortex.imaging"):
            imaging.time_of_flight(state, 1e-3, 2e-4, g2d)
        (record,) = caplog.records
        n_steps = int(re.search(r"window of (\d+) steps",
                                record.getMessage()).group(1))
        assert n_steps > 1
        window_grid = "in-trap 32x32" if resolved else "padded 64x64"
        assert f"orders on the {window_grid} grid;" in record.getMessage()
        return n_steps

    @pytest.mark.parametrize("pruned", [False, True])
    def test_time_of_flight_costs_2n_plus_3(self, grid32, trap, units,
                                            fft_calls, caplog, pruned):
        # the in-trap transform the switch reads, then the padded window
        n_steps = self.fly(grid32, trap, units, caplog, [0] if pruned else [])
        assert len(fft_calls) == 2 * n_steps + 3 + pruned
        assert [shape[-2:] for _, _, shape in fft_calls] == (
            [(32, 32)] + [(64, 64)] * (2 * n_steps + 2 + pruned))

    def test_time_of_flight_pruned_at_both_ends_costs_2n_plus_5(
            self, grid32, trap, units, fft_calls, caplog):
        # each pruned block at an end of the ladder is one forward call
        n_steps = self.fly(grid32, trap, units, caplog, [0, 2])
        assert len(fft_calls) == 2 * n_steps + 5

    @pytest.mark.parametrize("empty_rows", [[], [0], [0, 2]])
    def test_time_of_flight_on_the_in_trap_grid_costs_2n_plus_4(
            self, grid32, trap, units, fft_calls, caplog, empty_rows):
        # the window's 2n + 1, the first of which the switch reads, and
        # its inverse on the in-trap grid, then one forward call for every
        # row, pruned or not, and the inverse on the padded grid
        n_steps = self.fly(grid32, trap, units, caplog, empty_rows,
                           resolved=True)
        assert len(fft_calls) == 2 * n_steps + 4
        assert [shape[-2:] for _, _, shape in fft_calls] == (
            [(32, 32)] * (2 * n_steps + 2) + [(64, 64)] * 2)
