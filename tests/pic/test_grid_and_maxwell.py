"""Tests of the Yee grid and the FDTD field solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.pic.grid import GridConfig, STAGGER, YeeGrid
from repro.pic.maxwell import YeeSolver


def make_grid(shape=(16, 8, 4), cell=1.0e-5):
    return YeeGrid(GridConfig(shape=shape, cell_size=(cell, cell, cell)))


class TestGridConfig:
    def test_basic_properties(self):
        cfg = GridConfig(shape=(4, 5, 6), cell_size=(1.0, 2.0, 3.0))
        assert cfg.n_cells == 120
        assert cfg.cell_volume == pytest.approx(6.0)
        assert cfg.extent == (4.0, 10.0, 18.0)

    def test_courant_limit(self):
        cfg = GridConfig(shape=(4, 4, 4), cell_size=(1e-5, 1e-5, 1e-5))
        dt = cfg.courant_time_step(safety=1.0)
        assert dt == pytest.approx(1e-5 / (constants.SPEED_OF_LIGHT * np.sqrt(3.0)))

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            GridConfig(shape=(0, 4, 4))

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridConfig(shape=(4, 4, 4), cell_size=(1.0, -1.0, 1.0))

    def test_paper_cell_size_default(self):
        cfg = GridConfig(shape=(4, 4, 4))
        assert cfg.cell_size[0] == pytest.approx(constants.PAPER_CELL_SIZE)


class TestYeeGrid:
    def test_fields_start_at_zero(self):
        grid = make_grid()
        assert grid.field_energy() == 0.0
        assert grid.Ex.shape == (16, 8, 4)

    def test_energy_of_uniform_field(self):
        grid = make_grid(shape=(4, 4, 4), cell=1.0)
        grid.Ex.fill(2.0)
        want = 0.5 * constants.EPSILON_0 * 4.0 * 64
        assert grid.electric_energy() == pytest.approx(want)
        grid.Bz.fill(3.0)
        want_b = 0.5 / constants.MU_0 * 9.0 * 64
        assert grid.magnetic_energy() == pytest.approx(want_b)

    def test_component_lookup(self):
        grid = make_grid()
        assert grid.component("Ey") is grid.Ey
        with pytest.raises(KeyError):
            grid.component("Qx")

    def test_stagger_table_complete(self):
        for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz", "Jx", "Jy", "Jz", "rho"):
            assert len(STAGGER[name]) == 3
            assert all(s in (0.0, 0.5) for s in STAGGER[name])

    def test_clear_currents(self):
        grid = make_grid()
        grid.Jx.fill(1.0)
        grid.clear_currents()
        assert np.all(grid.Jx == 0.0)


class TestYeeSolver:
    def test_divergence_b_preserved(self, rng):
        """The Yee curl keeps div B = 0 to machine precision."""
        grid = make_grid(shape=(8, 8, 8))
        solver = YeeSolver(grid)
        # random (divergence-free: starts at zero) B and random E
        grid.Ex[...] = rng.normal(size=grid.shape)
        grid.Ey[...] = rng.normal(size=grid.shape)
        grid.Ez[...] = rng.normal(size=grid.shape)
        dt = grid.config.courant_time_step()
        for _ in range(20):
            solver.step(dt)
        assert np.max(np.abs(grid.divergence_b())) < 1e-6 * np.max(np.abs(grid.Bx) + 1e-300)

    def test_vacuum_energy_conserved(self):
        """A vacuum plane wave keeps its energy under the leapfrog update."""
        n = 32
        cell = 1.0e-5
        grid = make_grid(shape=(n, 4, 4), cell=cell)
        solver = YeeSolver(grid)
        length = n * cell
        k = 2 * np.pi / length
        x_e = (np.arange(n) + 0.0) * cell   # Ey at integer x
        x_b = (np.arange(n) + 0.5) * cell   # Bz at half x
        amplitude = 1.0
        grid.Ey[...] = (amplitude * np.sin(k * x_e))[:, None, None]
        grid.Bz[...] = (amplitude / constants.SPEED_OF_LIGHT * np.sin(k * x_b))[:, None, None]
        initial = grid.field_energy()
        dt = grid.config.courant_time_step()
        for _ in range(200):
            solver.step(dt)
        assert grid.field_energy() == pytest.approx(initial, rel=1e-3)

    def test_plane_wave_propagates_at_c(self):
        """The wave crest moves by ~c*dt per step along x."""
        n = 64
        cell = 1.0e-5
        grid = make_grid(shape=(n, 2, 2), cell=cell)
        solver = YeeSolver(grid)
        length = n * cell
        k = 2 * np.pi / length
        x_e = np.arange(n) * cell
        x_b = (np.arange(n) + 0.5) * cell
        grid.Ey[...] = np.sin(k * x_e)[:, None, None]
        grid.Bz[...] = (np.sin(k * x_b) / constants.SPEED_OF_LIGHT)[:, None, None]
        dt = grid.config.courant_time_step()
        steps = 40
        for _ in range(steps):
            solver.step(dt)
        # expected phase shift: the +x travelling wave sin(k(x - ct))
        expected = np.sin(k * (x_e - constants.SPEED_OF_LIGHT * dt * steps))
        got = grid.Ey[:, 0, 0]
        correlation = np.corrcoef(expected, got)[0, 1]
        assert correlation > 0.99

    def test_cfl_violation_raises(self):
        grid = make_grid()
        solver = YeeSolver(grid)
        with pytest.raises(ValueError):
            solver.step(10.0 * grid.config.courant_time_step())

    def test_current_drives_field(self):
        """A uniform current density produces a growing uniform E field."""
        grid = make_grid(shape=(4, 4, 4))
        solver = YeeSolver(grid)
        grid.Jz.fill(1.0)
        dt = grid.config.courant_time_step()
        solver.step(dt)
        expected = -dt / constants.EPSILON_0
        np.testing.assert_allclose(grid.Ez, expected, rtol=1e-12)

    def test_gauss_error_zero_for_consistent_fields(self):
        grid = make_grid(shape=(6, 6, 6))
        solver = YeeSolver(grid)
        assert solver.gauss_error() == pytest.approx(0.0)
