"""Kelvin-Helmholtz instability (KHI) setup.

Section IV-A of the paper: two counter-propagating plasma streams with
normalised velocity ``beta = v/c = 0.2``, particle density ``n0 = 1e25 m^-3``,
9 particles per cell and cubic cells of 93.5 µm; the smallest volume is
192×256×12 cells.  The streams flow along ``x`` and the velocity shear is
along ``y`` (two shear surfaces because of the periodic box, see Fig. 1).

:func:`make_khi_simulation` builds a ready-to-run :class:`PICSimulation`
with electrons following the shear-flow profile and co-drifting,
charge- and current-neutralising protons.  A small sinusoidal velocity
perturbation plus thermal noise seeds the instability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import constants
from repro.pic.grid import GridConfig
from repro.pic.particles import ParticleSpecies
from repro.pic.simulation import PICSimulation, SimulationConfig
from repro.utils.rng import RandomState, seeded_rng
from repro.utils.validation import check_int, is_finite_real


#: Geometry of the setup: the streams flow along x and the velocity
#: changes sign along y.  Region labels, the streamed momentum histogram and
#: the inversion's evaluation all read these.
FLOW_AXIS = 0
SHEAR_AXIS = 1
#: Thermal spread of every velocity component (units of c).
THERMAL_BETA = 0.005
#: Seed perturbation: a transverse velocity of this fraction of ``beta``,
#: sinusoidal along the flow with one period across the box.
PERTURBATION_AMPLITUDE = 0.01
PERTURBATION_MODES = 1


@dataclass
class KHIConfig:
    """Physical and numerical parameters of the KHI setup.

    The defaults are scaled-down but keep the paper's dimensionless
    parameters (``beta``, particles per cell).  Use :meth:`paper` for the
    full Section IV-A configuration.  Cells are the paper's cubes of
    :data:`repro.constants.PAPER_CELL_SIZE` and the time step is the grid's
    Courant step.
    """

    grid_shape: Tuple[int, int, int] = (16, 32, 4)
    #: Default density is reduced with respect to the paper's 1e25 m^-3 so
    #: that the *default* (coarse, laptop-sized) grid still resolves the
    #: plasma frequency and skin depth (a few cells per skin depth); the
    #: paper-scale grid resolves them at 1e25 with its much finer effective
    #: resolution.
    density: float = 4.0e20
    beta: float = constants.PAPER_BETA
    particles_per_cell: int = constants.PAPER_PARTICLES_PER_CELL
    seed: Optional[int] = 42

    def __post_init__(self) -> None:
        # checked here, not when the simulation is built, so that a campaign
        # spec or --config file carrying an unrunnable value fails at resolve
        if len(self.grid_shape) != 3:
            raise ValueError(f"grid_shape must be three integers >= 1, "
                             f"got {self.grid_shape!r}")
        for cells in self.grid_shape:
            check_int("grid_shape entries", cells, 1)
        if self.particles_per_cell < 1:
            raise ValueError(f"particles_per_cell must be >= 1, "
                             f"got {self.particles_per_cell!r}")
        if not (is_finite_real(self.density) and self.density > 0):
            raise ValueError(f"density must be finite and > 0, "
                             f"got {self.density!r}")
        if not (is_finite_real(self.beta) and 0 < self.beta < 1):
            raise ValueError(f"beta must be finite with 0 < beta < 1, "
                             f"got {self.beta!r}")

    @classmethod
    def paper(cls) -> "KHIConfig":
        """The smallest volume reported in the paper (192×256×12 cells)."""
        return cls(grid_shape=constants.PAPER_SMALLEST_GRID)

    @property
    def grid_config(self) -> GridConfig:
        return GridConfig(shape=self.grid_shape,
                          cell_size=(constants.PAPER_CELL_SIZE,) * 3)

    @property
    def n_macro_electrons(self) -> int:
        return int(np.prod(self.grid_shape)) * self.particles_per_cell

    @property
    def macro_weight(self) -> float:
        """Real electrons represented by one macro-particle."""
        cell_volume = constants.PAPER_CELL_SIZE ** 3
        return self.density * cell_volume / self.particles_per_cell

    @property
    def plasma_frequency(self) -> float:
        return constants.plasma_frequency(self.density)

    def omega_p_dt(self) -> float:
        """Plasma frequency times the time step.

        Explicit PIC requires ``omega_p * dt < 2`` for stability; well below
        that for accuracy.  :func:`make_khi_simulation` warns when the
        configuration violates this.
        """
        return self.plasma_frequency * self.grid_config.courant_time_step()


def _shear_velocity_profile(y: np.ndarray, extent_y: float, beta: float) -> np.ndarray:
    """Counter-propagating flow: +beta in the middle half of the box, -beta outside.

    With periodic boundaries this creates two shear surfaces at y = Ly/4 and
    y = 3 Ly/4 (the geometry sketched in Fig. 1).
    """
    inside = (y > 0.25 * extent_y) & (y < 0.75 * extent_y)
    return np.where(inside, beta, -beta)


def make_khi_simulation(config: KHIConfig | None = None,
                        rng: RandomState = None) -> PICSimulation:
    """Create a :class:`PICSimulation` initialised with the KHI configuration."""
    config = config or KHIConfig()
    if config.omega_p_dt() > 2.0:
        import warnings
        warnings.warn(
            f"omega_p * dt = {config.omega_p_dt():.2f} > 2: the explicit PIC "
            "scheme is unstable at this density on the paper's cells and "
            "Courant step; reduce the density",
            RuntimeWarning, stacklevel=2)
    rng = seeded_rng(config.seed if rng is None else rng)
    grid_config = config.grid_config
    extent = grid_config.extent

    n_macro = config.n_macro_electrons
    # Uniform particle loading with per-cell stratification along the shear axis
    # keeps density noise low without costing extra memory.
    positions = rng.uniform(0.0, 1.0, size=(n_macro, 3)) * np.asarray(extent)

    beta_flow = _shear_velocity_profile(positions[:, SHEAR_AXIS],
                                        extent[SHEAR_AXIS], config.beta)
    # seed perturbation: small sinusoidal transverse velocity along the flow axis
    k = 2.0 * np.pi * PERTURBATION_MODES / extent[FLOW_AXIS]
    perturbation = PERTURBATION_AMPLITUDE * config.beta * np.sin(
        k * positions[:, FLOW_AXIS])

    beta_vec = np.zeros((n_macro, 3))
    beta_vec[:, FLOW_AXIS] = beta_flow
    beta_vec[:, SHEAR_AXIS] = perturbation
    # thermal spread
    beta_vec += rng.normal(0.0, THERMAL_BETA, size=(n_macro, 3))
    speed = np.linalg.norm(beta_vec, axis=1)
    np.clip(speed, None, 0.99, out=speed)
    gamma = 1.0 / np.sqrt(1.0 - speed ** 2)
    momenta = beta_vec * gamma[:, None]

    weights = np.full(n_macro, config.macro_weight)
    electrons = ParticleSpecies.electrons(positions, momenta, weights)
    # Co-drifting protons: each stream is both charge and current neutral,
    # so fields start at noise level and the shear-driven instability can
    # grow out of it (the setup of Fig. 1).
    ion_beta = np.zeros((n_macro, 3))
    ion_beta[:, FLOW_AXIS] = beta_flow
    ion_speed = np.abs(beta_flow)
    ion_gamma = 1.0 / np.sqrt(1.0 - ion_speed ** 2)
    ion_momenta = ion_beta * ion_gamma[:, None]
    ions = ParticleSpecies.protons(positions.copy(), ion_momenta, weights.copy())
    simulation = PICSimulation(SimulationConfig(grid=grid_config),
                               species=[electrons, ions])

    simulation.initialize_fields_from_charge()
    return simulation


def growth_rate_estimate(config: KHIConfig) -> float:
    """Analytic order-of-magnitude estimate of the ESKHI growth rate [1/s].

    For the cold, symmetric electron-scale KHI the fastest growing mode has
    a growth rate of order ``Gamma ~ (beta / sqrt(8)) * omega_p / gamma``
    (Grismayer et al. 2013 scaling).  This is used only to pick sensible run
    lengths for examples and tests, not as a validation target.
    """
    gamma0 = constants.lorentz_gamma(config.beta)
    return config.beta / np.sqrt(8.0) * config.plasma_frequency / gamma0
