"""Fused bincount kernels vs the reference implementations.

Every fused kernel in :mod:`repro.pic.kernels` is tested against the
readable reference path it replaces, on randomized particle sets that
include periodic-boundary straddlers, so the ``kernel="fused"`` default of
the simulator is backed by an oracle rather than by inspection.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.pic.deposition import deposit_charge_cic, deposit_current_esirkepov
from repro.pic.grid import GridConfig, YeeGrid
from repro.pic.interpolation import gather_fields
from repro.pic.kernels import (CICPlanSet, Workspace, boris_push_fused,
                               deposit_current_esirkepov_fused)
from repro.pic.particles import ParticleSpecies
from repro.pic.pusher import boris_push
from repro.pic.simulation import PICSimulation, SimulationConfig


def make_grid(shape=(9, 7, 6), cell=1.0e-5):
    return YeeGrid(GridConfig(shape=shape, cell_size=(cell, cell, cell)))


def random_particles(rng, grid, n, straddle=True):
    """Random particle set; with ``straddle``, some sit on the periodic seam."""
    extent = np.asarray(grid.config.extent)
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * extent
    if straddle and n >= 8:
        # pin a handful of particles to within half a cell of the box edges
        cell = np.asarray(grid.config.cell_size)
        positions[:4] = rng.uniform(0.0, 0.5, size=(4, 3)) * cell
        positions[4:8] = extent - rng.uniform(0.0, 0.5, size=(4, 3)) * cell
    weights = rng.uniform(0.5, 2.0, size=n)
    return positions, weights


class TestGatherEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_matches_reference_on_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid()
        for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
            grid.component(name)[...] = rng.normal(size=grid.config.shape)
        positions, _ = random_particles(rng, grid, 64)
        e_ref, b_ref = gather_fields(grid, positions, kernel="reference")
        e_fused, b_fused = gather_fields(grid, positions, kernel="fused")
        # the paths differ only in floating-point summation order
        np.testing.assert_allclose(e_fused, e_ref, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(b_fused, b_ref, rtol=1e-10, atol=1e-13)

    def test_plan_cache_reuses_offsets(self):
        rng = np.random.default_rng(3)
        grid = make_grid()
        positions, _ = random_particles(rng, grid, 16)
        plans = CICPlanSet(positions, grid.config.cell_size, grid.config.shape)
        first = plans.plan((0.5, 0.0, 0.0))
        again = plans.plan((0.5, 0.0, 0.0))
        assert first is again  # stagger-group plans are computed once


class TestDepositionEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_charge_cic(self, seed):
        rng = np.random.default_rng(seed)
        ref, fused = make_grid(), make_grid()
        positions, weights = random_particles(rng, ref, 80)
        charge = -constants.ELEMENTARY_CHARGE
        deposit_charge_cic(ref, positions, charge, weights, kernel="reference")
        deposit_charge_cic(fused, positions, charge, weights, kernel="fused")
        np.testing.assert_allclose(fused.rho, ref.rho, rtol=1e-12, atol=1e-300)

    @given(st.integers(1, 120), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_esirkepov_property(self, n, seed):
        """Property: fused == reference for any count, incl. seam straddlers."""
        rng = np.random.default_rng(seed)
        ref, fused = make_grid(), make_grid()
        dt = ref.config.courant_time_step()
        old, weights = random_particles(rng, ref, n)
        displacement = rng.uniform(-0.9, 0.9, size=(n, 3)) \
            * np.asarray(ref.config.cell_size)
        new = old + displacement
        charge = -constants.ELEMENTARY_CHARGE
        deposit_current_esirkepov(ref, old, new, charge, weights, dt,
                                  kernel="reference")
        deposit_current_esirkepov(fused, old, new, charge, weights, dt,
                                  kernel="fused")
        for name in ("Jx", "Jy", "Jz"):
            a, b = fused.component(name), ref.component(name)
            scale = np.max(np.abs(b)) + 1e-300
            assert np.max(np.abs(a - b)) < 1e-12 * scale

    def test_esirkepov_chunked_matches_unchunked(self):
        rng = np.random.default_rng(7)
        grid_a, grid_b = make_grid(), make_grid()
        n = 500
        dt = grid_a.config.courant_time_step()
        old, weights = random_particles(rng, grid_a, n)
        new = old + rng.uniform(-0.9, 0.9, size=(n, 3)) \
            * np.asarray(grid_a.config.cell_size)
        deposit_current_esirkepov_fused(grid_a, old, new, 1.0, weights, dt,
                                        chunk_size=64)
        deposit_current_esirkepov_fused(grid_b, old, new, 1.0, weights, dt)
        for name in ("Jx", "Jy", "Jz"):
            a, b = grid_a.component(name), grid_b.component(name)
            scale = np.max(np.abs(b)) + 1e-300
            assert np.max(np.abs(a - b)) < 1e-13 * scale

    def test_esirkepov_fused_rejects_large_displacement(self):
        grid = make_grid(cell=1.0e-6)
        old = np.array([[1.0e-6, 1.0e-6, 1.0e-6]])
        with pytest.raises(ValueError):
            deposit_current_esirkepov_fused(grid, old, old + 2.0e-6, 1.0,
                                            np.ones(1), 1e-13)

    def test_continuity_at_machine_precision_under_fused(self):
        """Regression: the fused Esirkepov path conserves charge exactly."""
        rng = np.random.default_rng(11)
        grid = make_grid(shape=(10, 9, 8), cell=2.0e-5)
        n = 400
        dt = grid.config.courant_time_step()
        extent = np.asarray(grid.config.extent)
        old, weights = random_particles(rng, grid, n)
        new = old + rng.uniform(-0.9, 0.9, size=(n, 3)) \
            * np.asarray(grid.config.cell_size)
        rho0, rho1 = YeeGrid(grid.config), YeeGrid(grid.config)
        charge = -constants.ELEMENTARY_CHARGE
        deposit_charge_cic(rho0, old, charge, weights, kernel="fused")
        deposit_charge_cic(rho1, np.mod(new, extent), charge, weights,
                           kernel="fused")
        deposit_current_esirkepov(grid, old, new, charge, weights, dt,
                                  kernel="fused")
        residual = (rho1.rho - rho0.rho) / dt + grid.divergence_j()
        scale = np.max(np.abs((rho1.rho - rho0.rho) / dt))
        assert np.max(np.abs(residual)) < 1e-12 * scale


def two_species_simulation(seed, sizes=(300, 173), workspace=True):
    """A small simulation whose two pushed species differ in size."""
    rng = np.random.default_rng(seed)
    config = SimulationConfig(grid=GridConfig(shape=(8, 6, 4),
                                              cell_size=(1.0e-5, 1.0e-5, 1.0e-5)))
    simulation = PICSimulation(config)
    if not workspace:
        simulation._workspace = None        # every step allocates afresh
    for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        scale = 1.0e6 if name.startswith("E") else 1.0e-3
        simulation.grid.component(name)[...] = scale * rng.normal(
            size=simulation.grid.shape)
    for make, n in zip((ParticleSpecies.electrons, ParticleSpecies.protons), sizes):
        positions, weights = random_particles(rng, simulation.grid, n)
        simulation.add_species(make(positions, 0.3 * rng.normal(size=(n, 3)), weights))
    return simulation


def simulation_state(simulation):
    grid = simulation.grid
    state = [grid.component(name).copy()
             for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz", "Jx", "Jy", "Jz")]
    for species in simulation.species:
        state += [species.positions.copy(), species.momenta.copy()]
    return state


class TestWorkspace:
    def test_kernels_with_a_reused_workspace_are_bit_identical(self):
        rng = np.random.default_rng(5)
        workspace = Workspace()
        grid = make_grid()
        for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
            grid.component(name)[...] = rng.normal(size=grid.config.shape)
        charge = -constants.ELEMENTARY_CHARGE
        dt = 0.4 * grid.config.cell_size[0] / constants.SPEED_OF_LIGHT
        # sizes shrink and grow again: buffers are reused, regrown, reused
        for n in (90, 37, 90, 141, 8):
            old, weights = random_particles(rng, grid, n)
            new = old + rng.uniform(-0.4, 0.4, size=old.shape) * grid.config.cell_size[0]
            fresh = gather_fields(grid, old)
            reused = gather_fields(grid, old, workspace=workspace)
            np.testing.assert_array_equal(reused[0], fresh[0])
            np.testing.assert_array_equal(reused[1], fresh[1])
            a, b = make_grid(), make_grid()
            deposit_current_esirkepov_fused(a, old, new, charge, weights, dt,
                                            chunk_size=32)
            deposit_current_esirkepov_fused(b, old, new, charge, weights, dt,
                                            chunk_size=32, workspace=workspace)
            for name in ("Jx", "Jy", "Jz"):
                np.testing.assert_array_equal(b.component(name), a.component(name))

    def test_buffers_grow_but_are_not_reallocated_for_smaller_requests(self):
        workspace = Workspace()
        big = workspace.array("x", (4, 10))
        small = workspace.array("x", (3, 5))
        assert small.shape == (3, 5) and small.flags.c_contiguous
        assert np.shares_memory(big, small)
        assert not np.shares_memory(big, workspace.array("x", (4, 10), np.int64))
        assert not np.shares_memory(big, workspace.array("x", (5, 10)))

    def test_stepping_with_the_workspace_is_bit_identical_over_20_steps(self):
        fresh = two_species_simulation(seed=9, workspace=False)
        reused = two_species_simulation(seed=9)
        assert fresh._workspace is None and reused._workspace is not None
        for _ in range(20):
            fresh.step()
            reused.step()
        for got, want in zip(simulation_state(reused), simulation_state(fresh)):
            np.testing.assert_array_equal(got, want)

    def test_simulations_stepped_on_concurrent_threads_match_sequential_ones(self):
        seeds = (21, 22, 23, 24)                  # more threads than cores
        sequential = [two_species_simulation(seed) for seed in seeds]
        for simulation in sequential:
            for _ in range(20):
                simulation.step()
        concurrent = [two_species_simulation(seed) for seed in seeds]
        assert len({id(s._workspace) for s in concurrent}) == len(seeds)
        barrier = threading.Barrier(len(seeds))

        def run(simulation):
            barrier.wait(timeout=30)
            for _ in range(20):
                simulation.step()

        threads = [threading.Thread(target=run, args=(s,)) for s in concurrent]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(concurrent, sequential):
            assert got.step_index == 20
            for a, b in zip(simulation_state(got), simulation_state(want)):
                np.testing.assert_array_equal(a, b)


class TestBorisEquivalence:
    def test_fused_push_matches_reference(self):
        rng = np.random.default_rng(5)
        n = 64
        positions = rng.uniform(0, 1e-5, size=(n, 3))
        momenta = rng.normal(scale=0.1, size=(n, 3))  # gamma * beta

        def make_species():
            return ParticleSpecies(
                name="e", charge=-constants.ELEMENTARY_CHARGE,
                mass=constants.ELECTRON_MASS, positions=positions.copy(),
                momenta=momenta.copy(), weights=np.ones(n))

        ref = make_species()
        fused = make_species()
        e_fields = rng.normal(scale=1e3, size=(n, 3))
        b_fields = rng.normal(scale=1e-2, size=(n, 3))
        dt = 1e-12
        boris_push(ref, e_fields, b_fields, dt)
        boris_push_fused(fused, e_fields, b_fields, dt)
        np.testing.assert_allclose(fused.momenta, ref.momenta,
                                   rtol=1e-13, atol=1e-300)


class TestKernelValidation:
    def test_unknown_kernel_name_rejected(self):
        grid = make_grid()
        positions = np.zeros((1, 3))
        with pytest.raises(ValueError, match="kernel"):
            gather_fields(grid, positions, kernel="turbo")
        with pytest.raises(ValueError, match="kernel"):
            deposit_charge_cic(grid, positions, 1.0, np.ones(1), kernel="")

    def test_simulation_config_rejects_unknown_kernel(self):
        from repro.pic.simulation import SimulationConfig

        with pytest.raises(ValueError, match="kernel"):
            SimulationConfig(grid=GridConfig(shape=(4, 4, 4),
                                             cell_size=(1e-5,) * 3),
                             kernel="turbo")


class TestFullStepEquivalence:
    def test_khi_run_matches_between_kernels(self):
        from repro.pic.hotpath import EQUIVALENCE_RTOL, check_equivalence

        error = check_equivalence(n_steps=5)
        assert np.isfinite(error)
        assert error < EQUIVALENCE_RTOL
