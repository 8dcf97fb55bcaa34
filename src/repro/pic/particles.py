"""Macro-particle species in structure-of-arrays layout.

Positions are stored in metres, momenta as the dimensionless
``u = p / (m c) = gamma * beta`` (the quantity plotted in Fig. 9 of the
paper), and every macro-particle carries a weight (number of real particles
it represents).  Structure-of-arrays layout keeps the pusher and deposition
fully vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.utils.validation import check_array


@dataclass
class ParticleSpecies:
    """A species of macro-particles.

    Parameters
    ----------
    name:
        Species label (e.g. ``"electrons"``).
    charge:
        Charge of one *real* particle [C] (e.g. ``-e`` for electrons).
    mass:
        Mass of one real particle [kg].
    positions:
        Array of shape ``(N, 3)``, metres.
    momenta:
        Array of shape ``(N, 3)``, dimensionless ``gamma * beta``.
    weights:
        Array of shape ``(N,)``; number of real particles per macro-particle.
    """

    name: str
    charge: float
    mass: float
    positions: np.ndarray
    momenta: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.positions = check_array(self.positions, "positions", ndim=2)
        self.momenta = check_array(self.momenta, "momenta", ndim=2)
        self.weights = check_array(self.weights, "weights", ndim=1)
        if self.positions.shape[1] != 3 or self.momenta.shape[1] != 3:
            raise ValueError("positions and momenta must have shape (N, 3)")
        if not (len(self.positions) == len(self.momenta) == len(self.weights)):
            raise ValueError("positions, momenta and weights must have the same length")
        if self.mass <= 0:
            raise ValueError("mass must be positive")

    # ------------------------------------------------------------------ #
    @property
    def n_macro(self) -> int:
        """Number of macro-particles."""
        return int(self.positions.shape[0])

    def gamma(self) -> np.ndarray:
        """Lorentz factor per macro-particle."""
        gamma = np.einsum("ij,ij->i", self.momenta, self.momenta)
        gamma += 1.0
        return np.sqrt(gamma, out=gamma)

    def kinetic_energy(self) -> float:
        """Total kinetic energy ``sum w (gamma - 1) m c^2`` in joules."""
        mc2 = self.mass * constants.SPEED_OF_LIGHT ** 2
        return float(np.sum(self.weights * (self.gamma() - 1.0)) * mc2)

    # ------------------------------------------------------------------ #
    def phase_space(self) -> np.ndarray:
        """Return the 6D phase-space array ``(N, 6)`` = [x, y, z, ux, uy, uz].

        This is the per-particle record streamed to the MLapp (the 6
        channels of the encoder input in Fig. 7).
        """
        return np.concatenate([self.positions, self.momenta], axis=1)

    @staticmethod
    def electrons(positions: np.ndarray, momenta: np.ndarray,
                  weights: np.ndarray) -> "ParticleSpecies":
        """Convenience constructor for an electron species."""
        return ParticleSpecies("electrons", -constants.ELEMENTARY_CHARGE,
                               constants.ELECTRON_MASS, positions, momenta, weights)

    @staticmethod
    def protons(positions: np.ndarray, momenta: np.ndarray,
                weights: np.ndarray) -> "ParticleSpecies":
        """Convenience constructor for a proton species."""
        return ParticleSpecies("protons", constants.ELEMENTARY_CHARGE,
                               constants.PROTON_MASS, positions, momenta, weights)
