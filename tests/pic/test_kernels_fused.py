"""Fused bincount kernels vs the reference implementations.

Every kernel in :mod:`repro.pic.kernels` is tested against the readable
``*_reference`` oracle (or ``boris_push``) it replaced, on randomized
particle sets that include periodic-boundary straddlers, so the only kernels
the simulator runs are backed by an oracle rather than by inspection.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.pic.deposition import (deposit_charge_cic_reference,
                                  deposit_current_esirkepov_reference)
from repro.pic.grid import STAGGER, GridConfig, YeeGrid
from repro.pic.interpolation import gather_fields_reference
from repro.pic import kernels
from repro.pic.khi import KHIConfig, make_khi_simulation
from repro.pic.kernels import (Workspace, boris_push_fused, deposit_charge_cic,
                               deposit_current_esirkepov, gather_fields)
from repro.pic.particles import ParticleSpecies
from repro.pic.pusher import boris_push
from repro.pic.simulation import PICSimulation, SimulationConfig


def make_grid(shape=(9, 7, 6), cell=1.0e-5):
    return YeeGrid(GridConfig(shape=shape, cell_size=(cell, cell, cell)))


def rows_for(positions):
    """A fresh ``(6, N)`` array for :func:`gather_fields` to fill."""
    return np.empty((6, len(positions)))


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
        e_ref, b_ref = gather_fields_reference(grid, positions)
        e_fused, b_fused = gather_fields(grid, positions,
                                         Workspace(), rows_for(positions))
        # the paths differ only in floating-point summation order
        np.testing.assert_allclose(e_fused, e_ref, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(b_fused, b_ref, rtol=1e-10, atol=1e-13)


class TestDepositionEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_charge_cic(self, seed):
        rng = np.random.default_rng(seed)
        ref, fused = make_grid(), make_grid()
        positions, weights = random_particles(rng, ref, 80)
        charge = -constants.ELEMENTARY_CHARGE
        deposit_charge_cic_reference(ref, positions, charge, weights)
        deposit_charge_cic(fused, positions, charge, weights)
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
        deposit_current_esirkepov_reference(ref, old, new, charge, weights, dt)
        deposit_current_esirkepov(fused, old, new, charge, weights, dt, Workspace())
        for name in ("Jx", "Jy", "Jz"):
            a, b = fused.component(name), ref.component(name)
            scale = np.max(np.abs(b)) + 1e-300
            assert np.max(np.abs(a - b)) < 1e-12 * scale

    def test_esirkepov_chunked_matches_unchunked(self, monkeypatch):
        rng = np.random.default_rng(7)
        grid_a, grid_b = make_grid(), make_grid()
        n = 500
        dt = grid_a.config.courant_time_step()
        old, weights = random_particles(rng, grid_a, n)
        new = old + rng.uniform(-0.9, 0.9, size=(n, 3)) \
            * np.asarray(grid_a.config.cell_size)
        assert n <= kernels.CHUNK
        deposit_current_esirkepov(grid_b, old, new, 1.0, weights, dt, Workspace())
        monkeypatch.setattr(kernels, "CHUNK", 64)
        deposit_current_esirkepov(grid_a, old, new, 1.0, weights, dt, Workspace())
        for name in ("Jx", "Jy", "Jz"):
            a, b = grid_a.component(name), grid_b.component(name)
            scale = np.max(np.abs(b)) + 1e-300
            assert np.max(np.abs(a - b)) < 1e-13 * scale

    def test_esirkepov_fused_rejects_large_displacement(self):
        grid = make_grid(cell=1.0e-6)
        old = np.array([[1.0e-6, 1.0e-6, 1.0e-6]])
        with pytest.raises(ValueError):
            deposit_current_esirkepov(grid, old, old + 2.0e-6, 1.0,
                                      np.ones(1), 1e-13, Workspace())

    @pytest.mark.parametrize("deposit", [
        lambda *args: deposit_current_esirkepov(*args, Workspace()),
        deposit_current_esirkepov_reference],
                             ids=["fused", "reference"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_esirkepov_rejects_a_non_finite_position(self, deposit, bad, recwarn):
        """``NaN >= 1`` is False: the check must be "not all below one cell",
        or the NaN is cast to a garbage index and lands in ``J``."""
        rng = np.random.default_rng(4)
        grid = make_grid()
        old, weights = random_particles(rng, grid, 40)
        new = old + 0.1 * grid.config.cell_size[0]
        new[17, 1] = bad
        with pytest.raises(ValueError, match="less than one cell"):
            deposit(grid, old, new, 1.0, weights, 1e-15)
        assert not recwarn.list
        assert not grid.Jx.any() and not grid.Jy.any() and not grid.Jz.any()

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
        deposit_charge_cic(rho0, old, charge, weights)
        deposit_charge_cic(rho1, np.mod(new, extent), charge, weights)
        deposit_current_esirkepov(grid, old, new, charge, weights, dt, Workspace())
        residual = (rho1.rho - rho0.rho) / dt + grid.divergence_j()
        scale = np.max(np.abs((rho1.rho - rho0.rho) / dt))
        assert np.max(np.abs(residual)) < 1e-12 * scale


def count_workspace_calls(monkeypatch):
    """Spy on ``Workspace.array``; returns the list the calls are logged to."""
    calls = []
    original = Workspace.array

    def spy(self, name, shape, dtype=np.float64):
        calls.append(name)
        return original(self, name, shape, dtype)

    monkeypatch.setattr(Workspace, "array", spy)
    return calls


#: cell size of the stay/go cases: a power of two, so ``index + fraction``
#: survives the trip through metres exactly and "on a cell face" means it
FACE_EXACT_CELL = 2.0 ** -16
STAY_GO_KINDS = ("all-stay", "all-go", "mixed", "y-only", "z-only", "two-axes",
                 "seam-up", "seam-down", "on-face-before", "on-face-after")


def stay_go_case(kind, rng, grid, n):
    """``(old, new)`` positions whose cell crossings are what ``kind`` says.

    Every particle starts in the middle 40 % of a random cell and moves by
    less than a quarter cell (it stays) unless the kind pushes it, along the
    named axes, by 0.75–0.95 cells across a face (it goes).
    """
    shape, cell = np.asarray(grid.shape), np.asarray(grid.config.cell_size)
    index = rng.integers(0, shape, size=(n, 3)).astype(np.float64)
    fraction = rng.uniform(0.3, 0.7, size=(n, 3))
    shift = rng.uniform(-0.25, 0.25, size=(n, 3))
    push = rng.choice([-1.0, 1.0], size=(n, 3)) * rng.uniform(0.75, 0.95, size=(n, 3))
    some = rng.random(n) < 0.5 if n > 2 else np.arange(n) == 0
    if kind == "all-go":
        shift[:, 0] = push[:, 0]
    elif kind in ("mixed", "y-only", "z-only"):
        axis = ("mixed", "y-only", "z-only").index(kind)
        shift[some, axis] = push[some, axis]
    elif kind == "two-axes":
        shift[some, 0], shift[some, 2] = push[some, 0], push[some, 2]
    elif kind == "seam-up":           # out through the upper box faces
        index[some] = shape - 1.0
        shift[some] = np.abs(push[some])
    elif kind == "seam-down":         # out through the lower ones
        index[some] = 0.0
        shift[some] = -np.abs(push[some])
    elif kind == "on-face-before":    # starts on a face, moves up or down from it
        fraction[some] = 0.0
    elif kind == "on-face-after":     # lands on the upper or the lower face
        fraction[some] = 0.5
        shift[some] = rng.choice([-0.5, 0.5], size=(int(some.sum()), 3))
    return (index + fraction) * cell, (index + fraction + shift) * cell


def n_staying(grid, old, new):
    cell = np.asarray(grid.config.cell_size)
    return int((np.floor(old / cell) == np.floor(new / cell)).all(axis=1).sum())


def spy_on_bincount(monkeypatch):
    """Record the ``(indices, weights)`` of every ``np.bincount`` call."""
    scattered = []
    original = np.bincount

    def spy(x, weights=None, minlength=0):
        scattered.append((x.copy(), weights.copy()))
        return original(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(kernels.np, "bincount", spy)
    return scattered


def deposit_three_nodes_two_planes(monkeypatch, grid, *args):
    """The oracle: the kernel's block body at ``(width, planes) = (3, 2)`` on
    every particle — right for any move of less than a cell, and the
    arithmetic the kernel ran before it told stayers from goers."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_STAY", kernels._GO)
        deposit_current_esirkepov(grid, *args, Workspace())


def assert_currents_close(got, want, rtol):
    for name in ("Jx", "Jy", "Jz"):
        a, b = got.component(name), want.component(name)
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), name


class TestTwoClassDeposit:
    """Stayers take a 2-node stencil and one plane, goers 3 nodes and two;
    the result is the (3, 2)-everywhere one and what is skipped is zero."""

    def check(self, monkeypatch, grid_shape, kind, n, seed=0):
        rng = np.random.default_rng(seed)
        grids = [make_grid(grid_shape, FACE_EXACT_CELL) for _ in range(3)]
        two_class, oracle, reference = grids
        old, new = stay_go_case(kind, rng, two_class, n)
        weights = rng.uniform(0.5, 2.0, size=n)
        charge, dt = -constants.ELEMENTARY_CHARGE, two_class.config.courant_time_step()
        args = (old, new, charge, weights, dt)
        deposit_current_esirkepov(two_class, *args, Workspace())
        deposit_three_nodes_two_planes(monkeypatch, oracle, *args)
        deposit_current_esirkepov_reference(reference, *args)
        assert_currents_close(two_class, oracle, 1e-15)
        assert_currents_close(two_class, reference, 1e-12)
        # continuity against the CIC charge of the two position sets
        rho0, rho1 = YeeGrid(two_class.config), YeeGrid(two_class.config)
        deposit_charge_cic(rho0, old, charge, weights)
        deposit_charge_cic(rho1, np.mod(new, two_class.config.extent), charge, weights)
        change = (rho1.rho - rho0.rho) / dt
        scale = max(np.max(np.abs(change)), np.max(np.abs(two_class.Jx)) / FACE_EXACT_CELL)
        assert np.max(np.abs(change + two_class.divergence_j())) < 1e-12 * scale
        return two_class, old, new

    @pytest.mark.parametrize("kind", STAY_GO_KINDS)
    def test_equals_three_nodes_two_planes_everywhere(self, kind, monkeypatch):
        grid, old, new = self.check(monkeypatch, (9, 7, 6), kind, 300)
        k = n_staying(grid, old, new)
        assert {"all-stay": k == 300, "all-go": k == 0}.get(kind, 0 < k < 300)

    @pytest.mark.parametrize("n", [1, 2, 65])
    @pytest.mark.parametrize("kind", ["all-stay", "all-go", "mixed"])
    def test_any_count_and_a_last_block_of_one(self, kind, n, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", 64)
        self.check(monkeypatch, (9, 7, 6), kind, n, seed=n)

    @pytest.mark.parametrize("kind", ["z-only", "two-axes", "seam-up", "seam-down"])
    def test_an_axis_shorter_than_the_stencil(self, kind, monkeypatch):
        """``nz = 2``: a goer's three z nodes wrap onto two."""
        self.check(monkeypatch, (6, 5, 2), kind, 200)

    def test_what_the_stay_class_skips_is_exactly_zero(self, monkeypatch):
        """Not a tolerance: under the oracle a stayer's weights on the third
        node are ``0.0`` and its second plane is round-off of the first."""
        rng = np.random.default_rng(1)
        grid = make_grid((9, 7, 6), FACE_EXACT_CELL)
        n = 200
        old, new = stay_go_case("all-stay", rng, grid, n)
        scattered = spy_on_bincount(monkeypatch)
        deposit_three_nodes_two_planes(monkeypatch, grid, old, new, 1.0,
                                       np.ones(n), 1e-15)
        (_, weights), = scattered
        weights = weights.reshape(3, 2, 3, 3, n)    # [component, plane, b, c]
        assert np.all(weights[:, :, 2] == 0.0) and np.all(weights[:, :, :, 2] == 0.0)
        assert np.any(weights[:, 0, :2, :2] != 0.0)
        assert np.max(np.abs(weights[:, 1])) <= 1e-15 * np.max(np.abs(weights[:, 0]))

    @pytest.mark.parametrize("kind", ["all-stay", "all-go", "mixed", "seam-up"])
    def test_scatters_12_values_per_stayer_and_54_per_goer(self, kind, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", 64)
        rng = np.random.default_rng(2)
        grid = make_grid((9, 7, 6), FACE_EXACT_CELL)
        n = 2 * 64 + 9
        old, new = stay_go_case(kind, rng, grid, n)
        scattered = spy_on_bincount(monkeypatch)
        deposit_current_esirkepov(grid, old, new, 1.0, np.ones(n), 1e-15, Workspace())
        expected = []
        for start in range(0, n, 64):
            k = n_staying(grid, old[start:start + 64], new[start:start + 64])
            expected.append(12 * k + 54 * (len(old[start:start + 64]) - k))
        assert [len(indices) for indices, _ in scattered] == expected

    def test_workspace_use_does_not_depend_on_the_split(self, monkeypatch):
        """An all-stay, an all-go and a mixed species take the same buffers in
        the same order and leave a workspace of the same size."""
        monkeypatch.setattr(kernels, "CHUNK", 64)
        calls = count_workspace_calls(monkeypatch)
        rng = np.random.default_rng(3)
        grid = make_grid((9, 7, 6), FACE_EXACT_CELL)
        n = 3 * 64 + 17
        seen = {}
        for kind in ("all-stay", "all-go", "mixed"):
            old, new = stay_go_case(kind, rng, grid, n)
            workspace = Workspace()
            del calls[:]
            deposit_current_esirkepov(grid, old, new, 1.0, np.ones(n), 1e-15,
                                      workspace=workspace)
            seen[kind] = (list(calls), workspace.nbytes)
        assert seen["all-stay"] == seen["all-go"] == seen["mixed"]
        assert len(seen["mixed"][0]) == 4 * len(set(seen["mixed"][0]))


def two_species_simulation(seed, sizes=(300, 173)):
    """A small simulation whose two pushed species differ in size."""
    rng = np.random.default_rng(seed)
    config = SimulationConfig(grid=GridConfig(shape=(8, 6, 4),
                                              cell_size=(1.0e-5, 1.0e-5, 1.0e-5)))
    simulation = PICSimulation(config, [])
    for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        scale = 1.0e6 if name.startswith("E") else 1.0e-3
        simulation.grid.component(name)[...] = scale * rng.normal(
            size=simulation.grid.shape)
    for make, n in zip((ParticleSpecies.electrons, ParticleSpecies.protons), sizes):
        positions, weights = random_particles(rng, simulation.grid, n)
        simulation.species.append(make(positions, 0.3 * rng.normal(size=(n, 3)),
                                       weights))
    return simulation


def simulation_state(simulation):
    grid = simulation.grid
    state = [grid.component(name).copy()
             for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz", "Jx", "Jy", "Jz")]
    for species in simulation.species:
        state += [species.positions.copy(), species.momenta.copy()]
    return state


class TestWorkspace:
    def test_kernels_with_a_reused_workspace_are_bit_identical(self, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", 32)
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
            fresh = gather_fields(grid, old, Workspace(), rows_for(old))
            reused = gather_fields(grid, old, workspace, rows_for(old))
            np.testing.assert_array_equal(reused[0], fresh[0])
            np.testing.assert_array_equal(reused[1], fresh[1])
            a, b = make_grid(), make_grid()
            deposit_current_esirkepov(a, old, new, charge, weights, dt, Workspace())
            deposit_current_esirkepov(b, old, new, charge, weights, dt,
                                      workspace=workspace)
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
        fresh = two_species_simulation(seed=9)
        reused = two_species_simulation(seed=9)
        for _ in range(20):
            fresh._workspace = Workspace()      # every step allocates afresh
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

    def test_the_kernels_share_one_region_the_size_of_the_largest_call(
            self, monkeypatch):
        """Gather, push and deposit run one at a time, so after a step the
        simulation holds the scratch its largest single kernel call needs
        (the deposit's), not the sum of the three."""
        monkeypatch.setattr(kernels, "CHUNK", 64)
        sizes = (3 * 64 + 17, 64)
        probe = two_species_simulation(seed=6, sizes=sizes)
        species = probe.species[0]
        dt = probe.config.dt
        positions = species.positions
        e_fields, b_fields = gather_fields(probe.grid, positions,
                                           Workspace(), rows_for(positions))
        need = {}
        for kernel, call in (
                ("gather", lambda ws: gather_fields(probe.grid, positions, ws,
                                                    rows_for(positions))),
                ("push", lambda ws: boris_push_fused(species, e_fields, b_fields,
                                                     dt, workspace=ws, particles=slice(None))),
                ("deposit", lambda ws: deposit_current_esirkepov(
                    probe.grid, positions, positions, species.charge,
                    species.weights, dt, workspace=ws))):
            workspace = Workspace()
            call(workspace)
            need[kernel] = workspace.nbytes
        assert max(need.values()) == need["deposit"]
        assert max(need.values()) < sum(need.values())

        simulation = two_species_simulation(seed=6, sizes=sizes)
        simulation.step()
        assert simulation._workspace.nbytes == need["deposit"]

    def test_a_step_holds_the_arrays_of_one_species_at_a_time(self, monkeypatch):
        """Heap high-water of a step per macro-particle of one species, as
        the slope between two particle counts on one grid (per-block and
        per-grid scratch cancel).  At its widest a step holds, for the one
        species stepping, its unwrapped and wrapped new positions (3 + 3
        doubles) and the deposit's charge factor (1): 56 B.  The bound
        allows one more double for a NumPy temporary.  A step that kept the
        previous species' E/B (6 doubles) or old and new positions (6) alive
        while the next one steps is above it."""
        monkeypatch.setattr(kernels, "CHUNK", 512)

        def high_water(particles_per_cell):
            simulation = make_khi_simulation(KHIConfig(
                grid_shape=(8, 8, 4), particles_per_cell=particles_per_cell,
                seed=11))
            assert all(s.n_macro == simulation.species[0].n_macro
                       for s in simulation.species)
            tracemalloc.start()
            try:
                simulation.step()          # every array it keeps is traced
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                simulation.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return simulation.species[0].n_macro, peak - held

        (n_small, small), (n_large, large) = high_water(16), high_water(48)
        per_particle = (large - small) / (n_large - n_small)
        assert per_particle <= 8 * 8


def awkward_positions(rng, grid, n):
    """Positions far outside the box, exactly on nodes and half-nodes (incl.
    the box faces) and a hair below zero, among ordinary ones."""
    extent = np.asarray(grid.config.extent)
    cell = np.asarray(grid.config.cell_size)
    positions = rng.uniform(0.0, 1.0, size=(n, 3)) * extent
    k = n // 10
    positions[:k] = rng.uniform(-40.0, 40.0, size=(k, 3)) * extent
    positions[k:2 * k] = rng.integers(-3, 12, size=(k, 3)) * cell
    positions[2 * k:3 * k] = (rng.integers(-3, 12, size=(k, 3)) + 0.5) * cell
    positions[3 * k:3 * k + 4] = np.array(
        [(-1e-20, 0.0, 1e-20), extent, np.nextafter(extent, 0.0), 0.5 * cell])
    return positions


def boris_push_n3(species, e_fields, b_fields, dt):
    """The unblocked ``(N, 3)`` formulation ``boris_push_fused`` had before it
    worked on ``(3, m)`` rows — kept as its bitwise oracle.  (It took the two
    squared lengths with ``einsum("ij,ij->i")``, whose summation order depends
    on the NumPy build; they are written out here.)"""
    def cross(a, b):
        out = np.empty_like(a)
        out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
        out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
        out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        return out

    def norm_sq(a):
        return a[:, 0] * a[:, 0] + a[:, 2] * a[:, 2] + a[:, 1] * a[:, 1]

    qmdt2 = species.charge * dt / (2.0 * species.mass * constants.SPEED_OF_LIGHT)
    half_kick = qmdt2 * e_fields
    u = species.momenta
    u += half_kick
    gamma = np.sqrt(1.0 + norm_sq(u))
    t_vec = b_fields * ((species.charge * dt / (2.0 * species.mass)) / gamma)[:, None]
    t_sq = norm_sq(t_vec)
    u_prime = u + cross(u, t_vec)
    t_vec *= (2.0 / (1.0 + t_sq))[:, None]
    u += cross(u_prime, t_vec)
    u += half_kick


class TestBlockedKernels:
    """The ``CHUNK``-particle blocking changes no result and bounds the scratch."""

    @pytest.mark.parametrize("n", [0, 1, 2, 129, 500])
    def test_gather_does_not_depend_on_the_chunk(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        grid = make_grid()
        for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
            grid.component(name)[...] = rng.normal(size=grid.config.shape)
        positions = awkward_positions(rng, grid, n) if n >= 40 \
            else random_particles(rng, grid, n)[0]
        assert n <= kernels.CHUNK
        whole = gather_fields(grid, positions, Workspace(), rows_for(positions))
        monkeypatch.setattr(kernels, "CHUNK", 64)   # 129: a last block of one
        blocked = gather_fields(grid, positions, Workspace(), rows_for(positions))
        for got, want in zip(blocked, whole):
            assert got.shape == (n, 3)
            assert got.tobytes() == want.tobytes()
        # and the awkward positions are still right, not just self-consistent
        reference = gather_fields_reference(grid, positions)
        for got, want in zip(blocked, reference):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 64, 65, 200])
    def test_push_is_bitwise_the_n3_formulation_across_blocks(self, n, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", 64)
        rng = np.random.default_rng(n)
        momenta = rng.normal(size=(n, 3)) * rng.uniform(0.01, 5.0, size=(n, 1))
        species = [ParticleSpecies.electrons(np.zeros((n, 3)), momenta.copy(),
                                             np.ones(n)) for _ in range(3)]
        e_fields = rng.normal(scale=1e8, size=(n, 3))
        b_fields = rng.normal(scale=10.0, size=(n, 3))
        boris_push_n3(species[0], e_fields, b_fields, 1e-14)
        stored = species[1].momenta
        boris_push_fused(species[1], e_fields, b_fields, 1e-14,
                         Workspace(), slice(None))
        assert species[1].momenta is stored          # updated in place
        assert stored.tobytes() == species[0].momenta.tobytes()
        boris_push(species[2], e_fields, b_fields, 1e-14)
        np.testing.assert_allclose(stored, species[2].momenta,
                                   rtol=1e-13, atol=1e-300)

    def test_continuity_at_machine_precision_across_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", 64)
        TestDepositionEquivalence().test_continuity_at_machine_precision_under_fused()

    def test_one_block_is_one_pass_per_kernel(self, monkeypatch):
        """A species of at most ``CHUNK`` particles takes each kernel's scratch
        once — the blocking costs it nothing — and b blocks take the
        per-block scratch b times.  The gather's ghost-padded copy of E/B is
        taken once per call, however many blocks there are: once for a
        species of one block, twice for a larger one, which the step gathers
        and pushes in two parts."""
        monkeypatch.setattr(kernels, "CHUNK", 64)
        calls = count_workspace_calls(monkeypatch)
        per_block = {}
        for n in (5, 64, 3 * 64):
            simulation = two_species_simulation(seed=3, sizes=(n, n))
            del calls[:]
            simulation.step()
            parts = 1 if n <= 64 else 2
            assert calls.count("gather.padded") == parts * len(simulation.species)
            per_block[n] = sorted(name for name in calls if name != "gather.padded")
        assert per_block[5] == per_block[64]
        assert per_block[3 * 64] == sorted(3 * per_block[64])
        # gather (its own scratch and the shared CIC pieces), push and
        # deposit each went through the workspace
        assert {name.split(".")[0] for name in per_block[64]} == {
            "cic", "gather", "boris", "esirkepov"}

    def test_workspace_footprint_is_bounded_by_the_chunk(self, monkeypatch):
        monkeypatch.setattr(kernels, "CHUNK", 64)

        def footprint(n):
            simulation = two_species_simulation(seed=4, sizes=(n, n))
            for _ in range(2):
                simulation.step()
            return simulation._workspace.nbytes

        assert footprint(3 * 64 + 17) == footprint(64)
        assert footprint(64) > footprint(8)


_E_B = ("Ex", "Ey", "Ez", "Bx", "By", "Bz")


def gather_eight_wrapped_corners(grid, positions):
    """The gather before the ghost layer, kept as its bitwise oracle.

    Per axis and Yee offset the lower *and* the upper node are wrapped into
    the unpadded grid (an upper node one past the last row becomes 0), and
    each component's eight raveled corner indices are composed as
    ``(x ⊕ y) ⊕ z`` from them — the same corner values, weights and
    ``einsum`` as the kernel, reached through another index scheme.
    """
    positions = np.asarray(positions, dtype=np.float64)
    nx, ny, nz = grid.shape
    m = positions.shape[0]
    inv_cell = np.array([1.0 / d for d in grid.config.cell_size])[:, None]
    nvec = np.array(grid.shape, dtype=np.float64)[:, None]
    svec = np.array([ny * nz, nz, 1], dtype=np.float64)[:, None]
    shifted = np.empty((2, 3, m))
    np.multiply(positions.T, inv_cell, out=shifted[0])
    np.subtract(shifted[0], 0.5, out=shifted[1])
    base = np.floor(shifted)
    w = np.empty((2, 3, 2, m))
    w[:, :, 1] = shifted - base
    w[:, :, 0] = 1.0 - w[:, :, 1]
    base -= np.floor(base / nvec) * nvec
    lower = base * svec
    upper = lower + svec
    upper[upper == nvec * svec] = 0.0
    idx = np.stack([lower, upper], axis=2).astype(np.int64)
    rows = []
    for name in _E_B:
        rx, ry, rz = (int(2 * offset) for offset in STAGGER[name])
        lin = (idx[rx, 0, :, None, None] + idx[ry, 1, None, :, None]
               + idx[rz, 2, None, None, :]).reshape(8, m)
        w_xy = w[rx, 0, :, None, :] * w[ry, 1, None, :, :]
        weights = (w_xy[:, :, None, :] * w[rz, 2]).reshape(8, m)
        values = grid.component(name).reshape(-1)[lin]
        rows.append(np.einsum("cn,cn->n", weights, values))
    return np.stack(rows[:3], axis=1), np.stack(rows[3:], axis=1)


def random_fields(rng, grid):
    for name in _E_B:
        grid.component(name)[...] = rng.normal(size=grid.shape)
    return grid


def face_positions(grid):
    """``-0.0``, the float below ``L``, ``L`` and far outside, per axis."""
    extent = np.asarray(grid.config.extent)
    below = np.nextafter(extent, 0.0)
    cell = np.asarray(grid.config.cell_size)
    return np.array([np.full(3, -0.0), below, extent, (-0.0, extent[1], below[2]),
                     (extent[0], -0.0, 0.25 * cell[2]), 1e3 * extent,
                     -1e3 * extent - 0.3 * cell, 37.5 * extent, -0.5 * cell,
                     extent + 0.5 * cell])


class TestGhostLayerGather:
    """The ghost-padded gather is the eight-wrapped-corner one, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 63, 129, 500])
    def test_bitwise_the_eight_wrapped_corner_composition(self, n, monkeypatch):
        rng = np.random.default_rng(100 + n)
        grid = random_fields(rng, make_grid())
        positions = awkward_positions(rng, grid, n) if n >= 40 \
            else random_particles(rng, grid, n)[0]
        monkeypatch.setattr(kernels, "CHUNK", 64)    # several blocks
        for got, want in zip(gather_fields(grid, positions,
                                           Workspace(), rows_for(positions)),
                             gather_eight_wrapped_corners(grid, positions)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(9, 7, 6), (5, 1, 4), (1, 6, 3),
                                       (4, 3, 1), (1, 1, 1)])
    def test_box_faces_far_outside_and_one_cell_axes(self, shape, monkeypatch):
        """On a 1-cell axis the lower node is always 0 and the upper one the
        ghost plane, which is that same plane again."""
        rng = np.random.default_rng(sum(shape))
        grid = random_fields(rng, make_grid(shape))
        positions = np.vstack([random_particles(rng, grid, 150)[0],
                               face_positions(grid)])
        monkeypatch.setattr(kernels, "CHUNK", 64)
        fields = gather_fields(grid, positions, Workspace(), rows_for(positions))
        for got, want in zip(fields, gather_eight_wrapped_corners(grid, positions)):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(fields, gather_fields_reference(grid, positions)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)
        charge, reference = YeeGrid(grid.config), YeeGrid(grid.config)
        weights = rng.uniform(0.5, 2.0, size=len(positions))
        deposit_charge_cic(charge, positions, 1.0, weights)
        deposit_charge_cic_reference(reference, positions, 1.0, weights)
        # a thousand boxes out a coordinate keeps ~10 fewer fraction bits,
        # and the oracle divides by the cell where the kernel multiplies
        np.testing.assert_allclose(charge.rho, reference.rho, rtol=1e-10)

    def test_fields_reach_the_push_component_major(self, monkeypatch):
        """``E`` and ``B`` are ``(N, 3)`` views of ``(3, N)`` C-contiguous
        rows, so the push's per-block ``E[a:b].T`` reads contiguous rows."""
        monkeypatch.setattr(kernels, "CHUNK", 64)
        rng = np.random.default_rng(9)
        grid = random_fields(rng, make_grid())
        positions, _ = random_particles(rng, grid, 200)
        e_fields, b_fields = gather_fields(grid, positions,
                                           Workspace(), rows_for(positions))
        for fields in (e_fields, b_fields):
            assert fields.shape == (200, 3)
            assert fields.T.flags.c_contiguous
            assert fields[64:128].T[0].flags.c_contiguous

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_position_raises_without_a_warning(self, bad, monkeypatch):
        """A NaN or an inf used to be cast to an arbitrary cell: the gather
        read there and ``rho`` took a NaN in some unrelated cell."""
        monkeypatch.setattr(kernels, "CHUNK", 64)
        rng = np.random.default_rng(10)
        grid = random_fields(rng, make_grid())
        positions, weights = random_particles(rng, grid, 150)
        positions[97, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            gather_fields(grid, positions, Workspace(), rows_for(positions))
        with pytest.raises(ValueError, match="finite"):
            deposit_charge_cic(grid, positions, 1.0, weights)
        assert not grid.rho.any()


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
        boris_push_fused(fused, e_fields, b_fields, dt, Workspace(), slice(None))
        np.testing.assert_allclose(fused.momenta, ref.momenta,
                                   rtol=1e-13, atol=1e-300)


class TestFullStepEquivalence:
    def test_khi_run_matches_between_kernels(self, monkeypatch):
        from repro.pic import hotpath
        from repro.pic.hotpath import EQUIVALENCE_RTOL, check_equivalence

        monkeypatch.setattr(hotpath, "EQUIVALENCE_STEPS", 5)
        error = check_equivalence()
        assert np.isfinite(error)
        assert error < EQUIVALENCE_RTOL

    def test_reference_step_has_the_hooks_and_timer_sections_of_step(self):
        """The oracle loop is a drop-in for ``PICSimulation.step``: plugins
        see the same calls at the same step indices, and the timer the same
        sections the same number of times."""
        from collections import Counter

        from repro.pic.hotpath import STEP
        from repro.pic.khi import KHIConfig, make_khi_simulation
        from repro.pic.simulation import Plugin
        from repro.telemetry import SpanRecorder, recording

        class Probe(Plugin):
            def __init__(self):
                self.calls = []

            def on_start(self, simulation):
                self.calls.append(("start", simulation.step_index))

            def on_step(self, simulation):
                self.calls.append(("step", simulation.step_index))

        seen = {}
        for kernel, step in STEP.items():
            simulation = make_khi_simulation(KHIConfig(
                grid_shape=(4, 8, 2), particles_per_cell=2, seed=5))
            probe = simulation.add_plugin(Probe())
            recorder = SpanRecorder()
            with recording(recorder):
                for _ in range(3):
                    step(simulation)
            seen[kernel] = (probe.calls,
                            Counter(span.name for span in recorder.spans))
        assert seen["reference"] == seen["fused"]
        calls, counts = seen["fused"]
        assert calls == [("start", 0), ("step", 1), ("step", 2), ("step", 3)]
        assert set(counts) == {"pic.gather", "pic.push", "pic.deposit",
                               "pic.fields", "pic.plugins"}
