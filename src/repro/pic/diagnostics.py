"""In-situ diagnostics: energy history, momentum histograms, charge conservation.

These provide the "ground truth" views used by the scientific evaluation
(Fig. 9): per-region momentum distributions weighted by charge, and the
growth of the magnetic field energy that identifies the linear phase of the
instability (Pausch et al. 2017).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.pic.grid import YeeGrid
from repro.pic.kernels import deposit_charge_cic
from repro.pic.particles import ParticleSpecies
from repro.pic.simulation import PICSimulation, Plugin


def momentum_histogram(species: ParticleSpecies, axis: int = 0,
                       bins: int = 64, momentum_range: Tuple[float, float] = (-0.5, 0.5),
                       mask: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Charge-weighted histogram of one momentum component.

    Returns ``(bin_centres, charge_density)`` where the charge density is the
    weighted count per bin (arbitrary units, matching the "charge density"
    axis of Fig. 9(b, c)).
    """
    momenta = species.momenta[:, axis]
    weights = species.weights
    if mask is not None:
        momenta = momenta[mask]
        weights = weights[mask]
    hist, edges = np.histogram(momenta, bins=bins, range=momentum_range, weights=weights)
    centres = 0.5 * (edges[:-1] + edges[1:])
    return centres, hist


@dataclass
class EnergyHistory(Plugin):
    """Plugin recording field and particle energies every ``interval`` steps."""

    interval: int = 1
    steps: List[int] = field(default_factory=list)
    electric: List[float] = field(default_factory=list)
    magnetic: List[float] = field(default_factory=list)
    kinetic: List[float] = field(default_factory=list)

    def on_start(self, simulation: PICSimulation) -> None:
        self._record(simulation)

    def on_step(self, simulation: PICSimulation) -> None:
        if simulation.step_index % self.interval == 0:
            self._record(simulation)

    def _record(self, simulation: PICSimulation) -> None:
        self.steps.append(simulation.step_index)
        self.electric.append(simulation.grid.electric_energy())
        self.magnetic.append(simulation.grid.magnetic_energy())
        self.kinetic.append(simulation.total_kinetic_energy())

    def total(self) -> np.ndarray:
        return (np.asarray(self.electric) + np.asarray(self.magnetic)
                + np.asarray(self.kinetic))


@dataclass
class ChargeConservationMonitor(Plugin):
    """Plugin checking the continuity equation every step.

    Records ``max |d rho/dt + div J|`` normalised by the maximum charge
    density scale — with Esirkepov deposition this stays at round-off level.
    """

    residuals: List[float] = field(default_factory=list)
    _previous_rho: Optional[np.ndarray] = None

    def on_start(self, simulation: PICSimulation) -> None:
        self._previous_rho = self._charge_density(simulation)

    def on_step(self, simulation: PICSimulation) -> None:
        rho = self._charge_density(simulation)
        assert self._previous_rho is not None
        drho_dt = (rho - self._previous_rho) / simulation.config.dt
        residual = drho_dt + simulation.grid.divergence_j()
        scale = np.max(np.abs(drho_dt)) + 1e-300
        self.residuals.append(float(np.max(np.abs(residual)) / scale))
        self._previous_rho = rho

    @staticmethod
    def _charge_density(simulation: PICSimulation) -> np.ndarray:
        scratch = YeeGrid(simulation.config.grid)
        for s in simulation.species:
            deposit_charge_cic(scratch, s.positions, s.charge, s.weights)
        return scratch.rho.copy()

    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0
