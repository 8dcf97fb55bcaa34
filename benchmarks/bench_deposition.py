"""Cost and continuity residual of the Esirkepov current deposition.

PIConGPU uses the charge-conserving Esirkepov scheme, which satisfies the
discrete continuity equation to machine precision.  This benchmark measures
its cost and its continuity residual at a small and a large particle count,
so the per-particle scaling of the vectorised kernel is visible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.pic.deposition import deposit_charge_cic, deposit_current_esirkepov
from repro.pic.grid import GridConfig, YeeGrid


PARTICLE_COUNTS = (5000, 50000)


def setup_particles(rng, grid, n_particles):
    extent = np.asarray(grid.config.extent)
    dt = grid.config.courant_time_step()
    old = rng.uniform(0.1, 0.9, size=(n_particles, 3)) * extent
    velocities = rng.normal(scale=0.2, size=(n_particles, 3)) * constants.SPEED_OF_LIGHT
    new = old + velocities * dt
    weights = rng.uniform(0.5, 2.0, size=n_particles)
    return old, new, weights, dt


def continuity_residual(grid_config, old, new, weights, dt):
    grid = YeeGrid(grid_config)
    rho0, rho1 = YeeGrid(grid_config), YeeGrid(grid_config)
    charge = -constants.ELEMENTARY_CHARGE
    extent = np.asarray(grid_config.extent)
    deposit_charge_cic(rho0, old, charge, weights)
    deposit_charge_cic(rho1, np.mod(new, extent), charge, weights)
    deposit_current_esirkepov(grid, old, new, charge, weights, dt)
    residual = (rho1.rho - rho0.rho) / dt + grid.divergence_j()
    scale = np.max(np.abs((rho1.rho - rho0.rho) / dt)) + 1e-300
    return float(np.max(np.abs(residual)) / scale)


@pytest.mark.parametrize("n_particles", PARTICLE_COUNTS)
def test_deposition_esirkepov_cost(benchmark, rng, n_particles):
    grid_config = GridConfig(shape=(16, 16, 8), cell_size=(1e-5,) * 3)
    grid = YeeGrid(grid_config)
    old, new, weights, dt = setup_particles(rng, grid, n_particles)
    charge = -constants.ELEMENTARY_CHARGE

    benchmark(lambda: deposit_current_esirkepov(grid, old, new, charge, weights, dt))

    residual = continuity_residual(grid_config, old, new, weights, dt)
    benchmark.extra_info["continuity_residual"] = f"{residual:.2e}"
    benchmark.extra_info["particles"] = n_particles
    assert residual < 1e-9
