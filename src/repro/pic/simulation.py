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
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.pic.fom import FigureOfMerit, figure_of_merit
from repro.pic.grid import GridConfig, YeeGrid
from repro.pic.kernels import (Workspace, boris_push_fused, deposit_charge_cic,
                               deposit_current_esirkepov, gather_fields)
from repro.pic.maxwell import YeeSolver
from repro.pic.particles import ParticleSpecies
from repro.pic.pusher import advance_positions
from repro.telemetry.spans import Timer


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
                 species: Sequence[ParticleSpecies] = ()) -> None:
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

    # -- setup ------------------------------------------------------------- #
    def add_species(self, species: ParticleSpecies) -> ParticleSpecies:
        self.species.append(species)
        return species

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

    def step(self) -> None:
        """Advance the whole system by one time step.

        :func:`repro.pic.hotpath.reference_step` is the same step on the
        readable oracle kernels; keep the two in step when editing this one.
        """
        if not self._started:
            for plugin in self.plugins:
                plugin.on_start(self)
            self._started = True
        dt = self.config.dt
        extent = self.config.grid.extent
        grid = self.grid

        grid.clear_currents()
        for s in self.species:
            with self.timer.section("gather"):
                e_at_p, b_at_p = gather_fields(grid, s.positions, self._workspace)
            with self.timer.section("push"):
                boris_push_fused(s, e_at_p, b_at_p, dt, workspace=self._workspace)
                # every per-species array goes as soon as nothing reads it,
                # so the next species never steps beside this one's
                del e_at_p, b_at_p
                # advance_positions rebinds (never mutates) the stored
                # array, so the pre-push positions survive without a copy
                old_positions = s.positions
                new_positions = advance_positions(s, dt, extent)
            with self.timer.section("deposit"):
                deposit_current_esirkepov(grid, old_positions, new_positions,
                                          s.charge, s.weights, dt,
                                          workspace=self._workspace)
            del old_positions, new_positions
        with self.timer.section("fields"):
            self.solver.step(dt)
        self.step_index += 1
        with self.timer.section("plugins"):
            for plugin in self.plugins:
                plugin.on_step(self)

    def run(self, n_steps: int) -> FigureOfMerit:
        """Run ``n_steps`` and return the figure of merit of the run."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        start = time.perf_counter()
        for _ in range(n_steps):
            self.step()
        wall = time.perf_counter() - start
        for plugin in self.plugins:
            plugin.on_finish(self)
        return figure_of_merit(self.n_macro_particles, self.config.grid.n_cells,
                               n_steps, wall)

    # -- diagnostics --------------------------------------------------------- #
    def total_kinetic_energy(self) -> float:
        return float(sum(s.kinetic_energy() for s in self.species))

    def total_energy(self) -> float:
        """Field plus particle kinetic energy [J]."""
        return self.grid.field_energy() + self.total_kinetic_energy()
