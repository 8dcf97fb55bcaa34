"""The particle-in-cell time-stepping loop with a plugin interface.

PIConGPU exposes its in-situ diagnostics (the far-field radiation plugin,
openPMD output, ISAAC visualisation, ...) as plugins invoked after every
time step.  :class:`PICSimulation` mirrors that structure: a
:class:`Plugin` registers for a hook and receives the simulation object.
Where the paper has two independent output plugins feeding two data
streams, this repository attaches one,
:class:`repro.core.producer.StreamingProducerPlugin`, which computes the
radiation (:mod:`repro.radiation`) and streams it with the particle data as
one openPMD iteration.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.pic import kernels
from repro.pic.grid import GridConfig, YeeGrid
from repro.pic.kernels import (Workspace, add_current, boris_push_fused,
                               deposit_charge_cic, deposit_current_esirkepov,
                               gather_fields, n_blocks)
from repro.pic.maxwell import YeeSolver
from repro.pic.particles import ParticleSpecies
from repro.pic.pusher import advance_positions, boris_push, wrap_periodic
from repro.telemetry.spans import Timer, carry_trace


class Plugin:
    """Base class of in-situ plugins (radiation, openPMD output, ...)."""

    #: Plugins with smaller order run first.
    order: int = 100

    def on_start(self, simulation: "PICSimulation") -> None:
        """Called once before the first step."""

    def on_step(self, simulation: "PICSimulation") -> None:
        """Called after every completed time step."""

    def on_finish(self, simulation: "PICSimulation") -> None:
        """Called after the last step of a :meth:`PICSimulation.run`."""


@dataclass
class SimulationConfig:
    """Configuration of a PIC run.

    Parameters
    ----------
    grid:
        Grid geometry.
    dt:
        Time step [s]; defaults to 99.5 % of the CFL limit.
    """

    grid: GridConfig
    dt: Optional[float] = None

    def __post_init__(self) -> None:
        if self.dt is None:
            self.dt = self.grid.courant_time_step()
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.dt > self.grid.courant_time_step(safety=1.0):
            raise ValueError("dt violates the CFL limit of the grid")


class PICSimulation:
    """A complete PIC simulation: grid, species, field solver and plugins."""

    def __init__(self, config: SimulationConfig,
                 species: Sequence[ParticleSpecies]) -> None:
        self.config = config
        self.grid = YeeGrid(config.grid)
        self.solver = YeeSolver(self.grid)
        self.species: List[ParticleSpecies] = list(species)
        self.plugins: List[Plugin] = []
        self.step_index = 0
        self.timer = Timer("pic")
        self._started = False
        # scratch of the fused kernels, kept across steps; one per simulation
        # because several simulations may step concurrently in one process
        self._workspace = Workspace()
        # the executor a driver lends to the steps (:meth:`lent`), if any
        self._helper: Optional[Executor] = None
        # the helper thread's kernel scratch and step-lived arrays
        self._helper_workspaces = (Workspace(), Workspace())

    # -- setup ------------------------------------------------------------- #
    def get_species(self, name: str) -> ParticleSpecies:
        for s in self.species:
            if s.name == name:
                return s
        raise KeyError(f"no species named {name!r}")

    def add_plugin(self, plugin: Plugin) -> Plugin:
        self.plugins.append(plugin)
        self.plugins.sort(key=lambda p: p.order)
        return plugin

    # -- core loop ---------------------------------------------------------- #
    @property
    def time(self) -> float:
        """Physical time of the current state [s]."""
        return self.step_index * self.config.dt

    @property
    def n_macro_particles(self) -> int:
        return int(sum(s.n_macro for s in self.species))

    def initialize_fields_from_charge(self) -> None:
        """Deposit the initial charge density (used for Gauss-law diagnostics)."""
        self.grid.clear_charge()
        for s in self.species:
            deposit_charge_cic(self.grid, s.positions, s.charge, s.weights)

    @contextmanager
    def lent(self, helper: Executor) -> Iterator["PICSimulation"]:
        """Lend ``helper``, a one-thread executor, to every step of the block.

        The species then step in pairs: the second of a pair, if it holds
        at least ``CHUNK`` particles, steps on the helper while this thread
        steps the first.  Its current comes back per block and is added
        after the first's, so ``J`` is summed in species order and block
        order, as on one thread, and every step is bit-identical.  A failure
        on either thread propagates once the helper is idle, the stepping
        thread's first; the species that failed adds no current.  A failed
        step is not atomic: the helper's species may have been pushed and
        moved while the step adds none of its current.
        """
        self._helper = helper
        try:
            yield self
        finally:
            self._helper = None

    def step(self) -> None:
        """Advance the whole system by one time step (on two threads while
        a helper is :meth:`lent`).

        :func:`reference_step` is the same step on the readable oracle
        kernels; keep the two in step when editing this one.
        """
        if not self._started:
            for plugin in self.plugins:
                plugin.on_start(self)
            self._started = True
        grid, helper = self.grid, self._helper
        species = self.species

        grid.clear_currents()
        for first in range(0, len(species), 2):
            pair = species[first:first + 2]
            future = None
            if (helper is not None and len(pair) == 2
                    and pair[1].n_macro >= kernels.CHUNK):
                # the new stored positions outlive the step: they come from
                # this thread's heap, where the ones they replace go back
                future = helper.submit(carry_trace(self._advance), pair[1],
                                       *self._helper_workspaces,
                                       np.empty(pair[1].positions.shape))
            try:
                self._advance(pair[0], self._workspace)
            finally:
                # nothing propagates while the helper still works; this
                # thread's error, if any, goes before the helper's
                if future is not None:
                    wait((future,))
            if future is not None:
                add_current(grid, future.result())
            elif len(pair) == 2:
                self._advance(pair[1], self._workspace)
        with self.timer.section("fields"):
            self.solver.step(self.config.dt)
        self.step_index += 1
        with self.timer.section("plugins"):
            for plugin in self.plugins:
                plugin.on_step(self)
        self._check_fields()

    def _check_fields(self) -> None:
        """Fail the step that leaves a NaN or an infinity in E or B, a
        plugin's write included: a run must not settle on non-finite
        fields."""
        for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
            if not np.isfinite(getattr(self.grid, name)).all():
                raise FloatingPointError(
                    f"non-finite {name} after step {self.step_index}")

    def _advance(self, s: ParticleSpecies, scratch: Workspace,
                 held: Optional[Workspace] = None,
                 positions: Optional[np.ndarray] = None
                 ) -> Optional[np.ndarray]:
        """Gather → push → advance → deposit of one species.

        The gather and the push go in two parts of whole blocks, so the E/B
        rows of a part are no larger than the new positions; and the new
        positions are wrapped in place once the deposit has read them, so
        one array holds them.  Without ``held`` the current goes into
        ``grid.J*``.  With it — the helper's case — the E/B rows and the
        per-block currents are carved from ``held``, the new positions go
        into ``positions``, and the currents are returned for
        :func:`add_current`: the helper thread allocates nothing larger
        than one row of Lorentz factors, so its malloc arena keeps little
        resident beside the stepping thread's.
        """
        grid, dt, n = self.grid, self.config.dt, s.n_macro
        split = kernels.CHUNK * -(-n_blocks(n) // 2)
        # (a lone last particle stays with its block: the gather sums one
        # particle's corners in another order than a row of them)
        parts = ((0, n),) if n - split <= 1 else ((0, split), (split, n))
        rows_shape = (6, parts[0][1])
        rows = (np.empty(rows_shape) if held is None
                else held.begin().array("step.fields", rows_shape))
        for start, stop in parts:
            with self.timer.section("gather"):
                e_at_p, b_at_p = gather_fields(grid, s.positions[start:stop],
                                               scratch, rows[:, :stop - start])
            with self.timer.section("push"):
                boris_push_fused(s, e_at_p, b_at_p, dt, workspace=scratch,
                                 particles=slice(start, stop))
                if stop == n:
                    # every per-species array goes as soon as nothing reads
                    # it: the new positions never sit beside the E/B rows
                    del e_at_p, b_at_p, rows
                    blocks = None if held is None else held.begin().array(
                        "step.current",
                        (n_blocks(n), 3, self.config.grid.n_cells))
                    new_positions = advance_positions(s, dt, positions)
        with self.timer.section("deposit"):
            deposit_current_esirkepov(grid, s.positions, new_positions,
                                      s.charge, s.weights, dt,
                                      workspace=scratch, blocks=blocks)
            # read unwrapped, stored wrapped: in the new array, not the
            # stored one, which a streamed step may still hold
            s.positions = wrap_periodic(new_positions,
                                        self.config.grid.extent,
                                        out=new_positions)
        return blocks

    def run(self, n_steps: int) -> None:
        """Run ``n_steps``, then finish every plugin."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        for _ in range(n_steps):
            self.step()
        for plugin in self.plugins:
            plugin.on_finish(self)

    # -- diagnostics --------------------------------------------------------- #
    def total_kinetic_energy(self) -> float:
        return float(sum(s.kinetic_energy() for s in self.species))

    def total_energy(self) -> float:
        """Field plus particle kinetic energy [J]."""
        return self.grid.field_energy() + self.total_kinetic_energy()


def reference_step(simulation: PICSimulation) -> None:
    """Advance ``simulation`` by one step on the reference kernels.

    The oracle of :meth:`PICSimulation.step`: the same phases in the same
    order, the same plugin hooks and timer sections, with
    :func:`~repro.pic.interpolation.gather_fields_reference`,
    :func:`~repro.pic.pusher.boris_push` and
    :func:`~repro.pic.deposition.deposit_current_esirkepov_reference` in
    place of the :mod:`repro.pic.kernels` the simulation runs.
    """
    # imported here: a run never loads the oracle modules
    from repro.pic.deposition import deposit_current_esirkepov_reference
    from repro.pic.interpolation import gather_fields_reference

    if not simulation._started:
        for plugin in simulation.plugins:
            plugin.on_start(simulation)
        simulation._started = True
    dt = simulation.config.dt
    extent = simulation.config.grid.extent
    grid, timer = simulation.grid, simulation.timer

    grid.clear_currents()
    for s in simulation.species:
        with timer.section("gather"):
            e_at_p, b_at_p = gather_fields_reference(grid, s.positions)
        with timer.section("push"):
            boris_push(s, e_at_p, b_at_p, dt)
            new_positions = advance_positions(s, dt)
        with timer.section("deposit"):
            deposit_current_esirkepov_reference(
                grid, s.positions, new_positions, s.charge, s.weights, dt)
            s.positions = wrap_periodic(new_positions, extent)
    with timer.section("fields"):
        simulation.solver.step(dt)
    simulation.step_index += 1
    with timer.section("plugins"):
        for plugin in simulation.plugins:
            plugin.on_step(simulation)
    simulation._check_fields()
