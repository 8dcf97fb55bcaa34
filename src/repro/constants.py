"""Physical constants and unit helpers used across the PIC and radiation code.

All quantities are in SI units unless stated otherwise.  The particle-in-cell
core (:mod:`repro.pic`) internally works in normalised units (lengths in cell
widths, velocities in units of ``c``) and uses these constants only when
converting to and from physical setups such as the Kelvin-Helmholtz
configuration of the paper (Section IV-A).
"""

from __future__ import annotations

import math

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0

#: Elementary charge [C].
ELEMENTARY_CHARGE = 1.602_176_634e-19

#: Electron mass [kg].
ELECTRON_MASS = 9.109_383_7015e-31

#: Proton mass [kg].
PROTON_MASS = 1.672_621_923_69e-27

#: Vacuum permittivity [F/m].
EPSILON_0 = 8.854_187_8128e-12

#: Vacuum permeability [H/m].
MU_0 = 1.256_637_062_12e-6

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380_649e-23


def plasma_frequency(density: float) -> float:
    """Electron plasma frequency ``omega_p`` [rad/s] at an electron number
    ``density`` [1/m^3]."""
    if density < 0:
        raise ValueError("density must be non-negative")
    return math.sqrt(density * ELEMENTARY_CHARGE * ELEMENTARY_CHARGE
                     / (ELECTRON_MASS * EPSILON_0))


def courant_limit(dx: float, dy: float, dz: float) -> float:
    """CFL time-step limit of the 3D Yee scheme [s].

    ``dt_max = 1 / (c * sqrt(1/dx^2 + 1/dy^2 + 1/dz^2))``
    """
    if min(dx, dy, dz) <= 0:
        raise ValueError("cell sizes must be positive")
    inv = math.sqrt(1.0 / dx ** 2 + 1.0 / dy ** 2 + 1.0 / dz ** 2)
    return 1.0 / (SPEED_OF_LIGHT * inv)


# Paper values (Section IV-A), kept as named constants so configuration code
# and tests can reference them without magic numbers.
PAPER_CELL_SIZE = 93.5e-6             #: cubic cell edge length Delta x [m]
PAPER_TIME_STEP = 17.9e-15            #: time step Delta t [s]
PAPER_DENSITY = 1.0e25                #: electron density n0 [1/m^3]
PAPER_BETA = 0.2                      #: normalised stream velocity v/c
PAPER_PARTICLES_PER_CELL = 9          #: macro-particles per cell
PAPER_SMALLEST_GRID = (192, 256, 12)  #: smallest simulated volume [cells]
PAPER_SMALLEST_GPUS = 16              #: GPUs used for the smallest volume
