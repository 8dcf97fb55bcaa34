"""A relativistic 3D3V particle-in-cell (PIC) simulator in NumPy.

This subpackage plays the role of PIConGPU in the reproduced workflow: it
provides the numerical scheme PIConGPU implements (Yee-grid FDTD field
solver, relativistic Boris particle pusher, cloud-in-cell interpolation and
charge-conserving Esirkepov current deposition, on the cache-blocked
kernels of :mod:`repro.pic.kernels`), the Kelvin-Helmholtz instability
setup of Section IV-A and the figure-of-merit accounting of Fig. 4.

The readable ``*_reference`` implementations and ``boris_push`` are the
oracles those kernels are tested against, not run options, and are not
re-exported here; neither is :mod:`repro.pic.hotpath` (its
``reference_step`` steps a simulation on them), so ``python -m
repro.pic.hotpath`` imports it exactly once.

Scales are laptop sized (10^4–10^6 macro-particles instead of 2.7·10^13) but
the algorithms are the same, so the data fed to the ML pipeline exercises
the same code paths as the full-scale runs in the paper.
"""

from repro.pic.grid import GridConfig, YeeGrid
from repro.pic.particles import ParticleSpecies
from repro.pic.pusher import advance_positions
from repro.pic.kernels import (boris_push_fused, deposit_charge_cic,
                               deposit_current_esirkepov, gather_fields)
from repro.pic.maxwell import YeeSolver
from repro.pic.simulation import PICSimulation, SimulationConfig, Plugin
from repro.pic.khi import KHIConfig, make_khi_simulation

__all__ = [
    "GridConfig",
    "YeeGrid",
    "ParticleSpecies",
    "boris_push_fused",
    "advance_positions",
    "deposit_charge_cic",
    "deposit_current_esirkepov",
    "gather_fields",
    "YeeSolver",
    "PICSimulation",
    "SimulationConfig",
    "Plugin",
    "KHIConfig",
    "make_khi_simulation",
]
