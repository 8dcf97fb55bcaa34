"""Tests of the simulator's field gather and charge/current deposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.pic.grid import GridConfig, YeeGrid
from repro.pic.interpolation import gather_component
from repro.pic.kernels import (deposit_charge_cic, deposit_current_esirkepov,
                               gather_fields)


def make_grid(shape=(8, 8, 8), cell=1.0e-5):
    return YeeGrid(GridConfig(shape=shape, cell_size=(cell, cell, cell)))


class TestGather:
    def test_uniform_field_gathered_exactly(self, rng):
        grid = make_grid()
        grid.Ex.fill(3.0)
        grid.By.fill(-2.0)
        positions = rng.uniform(0, 8e-5, size=(50, 3))
        e, b = gather_fields(grid, positions)
        np.testing.assert_allclose(e[:, 0], 3.0)
        np.testing.assert_allclose(e[:, 1], 0.0)
        np.testing.assert_allclose(b[:, 1], -2.0)

    def test_linear_field_interpolated_exactly(self):
        """CIC interpolation reproduces fields linear in the coordinate."""
        grid = make_grid(shape=(16, 4, 4), cell=1.0)
        x_nodes = np.arange(16) + 0.5  # Ex stagger along x
        grid.Ex[...] = x_nodes[:, None, None]
        # away from the periodic seam the gather must be exact
        positions = np.array([[4.3, 1.7, 2.2], [7.9, 0.4, 3.6], [10.5, 2.0, 1.0]])
        values = gather_component(grid.Ex, positions, grid.config.cell_size,
                                  grid.stagger("Ex"))
        np.testing.assert_allclose(values, positions[:, 0], rtol=1e-12)

    def test_rejects_bad_positions(self):
        grid = make_grid()
        with pytest.raises(ValueError):
            gather_fields(grid, np.zeros((3, 2)))


class TestChargeDeposition:
    def test_total_charge_conserved(self, rng):
        grid = make_grid()
        positions = rng.uniform(0, 8e-5, size=(200, 3))
        weights = rng.uniform(0.5, 2.0, size=200)
        charge = -constants.ELEMENTARY_CHARGE
        deposit_charge_cic(grid, positions, charge, weights)
        total_deposited = np.sum(grid.rho) * grid.config.cell_volume
        assert total_deposited == pytest.approx(charge * weights.sum(), rel=1e-12)

    def test_particle_at_node_deposits_to_single_cell(self):
        grid = make_grid(cell=1.0)
        deposit_charge_cic(grid, np.array([[2.0, 3.0, 4.0]]), 1.0, np.ones(1))
        assert grid.rho[2, 3, 4] == pytest.approx(1.0)
        assert np.count_nonzero(grid.rho) == 1

    def test_deposits_add_into_rho(self, rng):
        grid = make_grid()
        pos = rng.uniform(0, 8e-5, size=(10, 3))
        deposit_charge_cic(grid, pos, 1.0, np.ones(10))
        first = grid.rho.copy()
        deposit_charge_cic(grid, pos, 1.0, np.ones(10))
        np.testing.assert_allclose(grid.rho, 2.0 * first)


class TestCurrentDeposition:
    def test_esirkepov_continuity_equation(self, rng):
        """The Esirkepov deposition satisfies d(rho)/dt + div J = 0 exactly."""
        grid = make_grid(shape=(10, 9, 8), cell=2.0e-5)
        n = 300
        dt = grid.config.courant_time_step()
        extent = np.asarray(grid.config.extent)
        old_positions = rng.uniform(0.05, 0.95, size=(n, 3)) * extent
        # displacement below one cell per step (CFL-consistent)
        displacement = rng.uniform(-0.9, 0.9, size=(n, 3)) * np.asarray(grid.config.cell_size)
        new_positions = old_positions + displacement
        weights = rng.uniform(0.5, 2.0, size=n)
        charge = -constants.ELEMENTARY_CHARGE

        rho_before = YeeGrid(grid.config)
        rho_after = YeeGrid(grid.config)
        deposit_charge_cic(rho_before, old_positions, charge, weights)
        deposit_charge_cic(rho_after, np.mod(new_positions, extent), charge, weights)

        deposit_current_esirkepov(grid, old_positions, new_positions, charge, weights, dt)

        drho_dt = (rho_after.rho - rho_before.rho) / dt
        residual = drho_dt + grid.divergence_j()
        scale = np.max(np.abs(drho_dt))
        assert np.max(np.abs(residual)) < 1e-9 * scale

    def test_esirkepov_matches_cic_total_current(self, rng):
        """Total deposited current agrees with q*w*v summed over particles."""
        grid = make_grid(shape=(12, 12, 6), cell=1.0e-5)
        n = 50
        dt = grid.config.courant_time_step()
        extent = np.asarray(grid.config.extent)
        old_positions = rng.uniform(0.1, 0.9, size=(n, 3)) * extent
        velocities = rng.normal(scale=0.3, size=(n, 3)) * constants.SPEED_OF_LIGHT
        new_positions = old_positions + velocities * dt
        weights = rng.uniform(0.5, 2.0, size=n)
        charge = constants.ELEMENTARY_CHARGE
        deposit_current_esirkepov(grid, old_positions, new_positions, charge, weights, dt)
        total = np.array([np.sum(grid.Jx), np.sum(grid.Jy), np.sum(grid.Jz)]) \
            * grid.config.cell_volume
        expected = charge * (weights[:, None] * velocities).sum(axis=0)
        np.testing.assert_allclose(total, expected, rtol=1e-9)

    def test_esirkepov_zero_for_static_particles(self, rng):
        grid = make_grid()
        pos = rng.uniform(0, 8e-5, size=(20, 3))
        deposit_current_esirkepov(grid, pos, pos.copy(), 1.0, np.ones(20), 1e-13)
        assert np.all(grid.Jx == 0.0) and np.all(grid.Jy == 0.0) and np.all(grid.Jz == 0.0)

    def test_esirkepov_rejects_large_displacement(self):
        grid = make_grid(cell=1.0e-6)
        old = np.array([[1.0e-6, 1.0e-6, 1.0e-6]])
        new = old + 2.0e-6
        with pytest.raises(ValueError):
            deposit_current_esirkepov(grid, old, new, 1.0, np.ones(1), 1e-13)

    def test_esirkepov_empty_input(self):
        grid = make_grid()
        deposit_current_esirkepov(grid, np.zeros((0, 3)), np.zeros((0, 3)), 1.0,
                                  np.zeros(0), 1e-13)
        assert np.all(grid.Jx == 0.0)


class TestContinuityProperty:
    @given(st.integers(1, 60), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_continuity_holds_for_random_configurations(self, n, seed):
        """Property: charge conservation holds for any particle count/config."""
        rng = np.random.default_rng(seed)
        grid = YeeGrid(GridConfig(shape=(6, 7, 5), cell_size=(1e-5, 1e-5, 1e-5)))
        dt = grid.config.courant_time_step()
        extent = np.asarray(grid.config.extent)
        old = rng.uniform(0, 1, size=(n, 3)) * extent
        delta = rng.uniform(-0.99, 0.99, size=(n, 3)) * 1e-5
        new = old + delta
        weights = rng.uniform(0.1, 3.0, size=n)
        rho0, rho1 = YeeGrid(grid.config), YeeGrid(grid.config)
        deposit_charge_cic(rho0, old, 1.0, weights)
        deposit_charge_cic(rho1, np.mod(new, extent), 1.0, weights)
        deposit_current_esirkepov(grid, old, new, 1.0, weights, dt)
        residual = (rho1.rho - rho0.rho) / dt + grid.divergence_j()
        scale = max(np.max(np.abs(rho1.rho - rho0.rho) / dt), 1e-30)
        assert np.max(np.abs(residual)) <= 1e-8 * scale
