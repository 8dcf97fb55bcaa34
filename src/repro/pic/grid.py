"""The Yee grid holding electromagnetic fields and current density.

Field components live on the standard staggered Yee lattice:

* ``Ex`` at ``(i+1/2, j,     k    )``
* ``Ey`` at ``(i,     j+1/2, k    )``
* ``Ez`` at ``(i,     j,     k+1/2)``
* ``Bx`` at ``(i,     j+1/2, k+1/2)``
* ``By`` at ``(i+1/2, j,     k+1/2)``
* ``Bz`` at ``(i+1/2, j+1/2, k    )``
* ``Jx/Jy/Jz`` co-located with ``Ex/Ey/Ez``
* charge density ``rho`` at the cell nodes ``(i, j, k)``

All arrays have shape ``(nx, ny, nz)``; boundaries are periodic, implemented
with ``numpy.roll`` in the solver.  Storage is C-ordered with ``z`` fastest,
which keeps the roll/curl operations on the innermost axis contiguous
(cache-friendliness, per the optimisation guide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro import constants
from repro.utils.validation import check_positive

#: Stagger offsets (in fractions of a cell) of every field component.
STAGGER: Dict[str, Tuple[float, float, float]] = {
    "Ex": (0.5, 0.0, 0.0),
    "Ey": (0.0, 0.5, 0.0),
    "Ez": (0.0, 0.0, 0.5),
    "Bx": (0.0, 0.5, 0.5),
    "By": (0.5, 0.0, 0.5),
    "Bz": (0.5, 0.5, 0.0),
    "Jx": (0.5, 0.0, 0.0),
    "Jy": (0.0, 0.5, 0.0),
    "Jz": (0.0, 0.0, 0.5),
    "rho": (0.0, 0.0, 0.0),
}


@dataclass(frozen=True)
class GridConfig:
    """Geometry of the simulation box.

    Parameters
    ----------
    shape:
        Number of cells ``(nx, ny, nz)``.
    cell_size:
        Cell edge lengths ``(dx, dy, dz)`` in metres.  The paper uses cubic
        cells of 93.5 µm.
    """

    shape: Tuple[int, int, int]
    cell_size: Tuple[float, float, float] = (constants.PAPER_CELL_SIZE,) * 3

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or any(int(n) < 1 for n in self.shape):
            raise ValueError("shape must be three positive integers")
        if len(self.cell_size) != 3:
            raise ValueError("cell_size must have three entries")
        for d in self.cell_size:
            check_positive(d, "cell size")

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.shape
        return int(nx) * int(ny) * int(nz)

    @property
    def cell_volume(self) -> float:
        dx, dy, dz = self.cell_size
        return dx * dy * dz

    @property
    def extent(self) -> Tuple[float, float, float]:
        """Physical box size (Lx, Ly, Lz) in metres."""
        return tuple(n * d for n, d in zip(self.shape, self.cell_size))

    def courant_time_step(self, safety: float = 0.995) -> float:
        """Largest stable FDTD time step times ``safety``."""
        return safety * constants.courant_limit(*self.cell_size)


class YeeGrid:
    """Container of the field arrays on a :class:`GridConfig`."""

    _FIELDS = ("Ex", "Ey", "Ez", "Bx", "By", "Bz", "Jx", "Jy", "Jz", "rho")

    def __init__(self, config: GridConfig) -> None:
        self.config = config
        shape = tuple(int(n) for n in config.shape)
        for name in self._FIELDS:
            setattr(self, name, np.zeros(shape, dtype=np.float64))

    # -- convenience views ------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int, int]:
        return tuple(self.config.shape)

    def clear_currents(self) -> None:
        """Zero the current density (start of every deposition phase)."""
        self.Jx.fill(0.0)
        self.Jy.fill(0.0)
        self.Jz.fill(0.0)

    def clear_charge(self) -> None:
        self.rho.fill(0.0)

    # -- diagnostics ------------------------------------------------------- #
    def electric_energy(self) -> float:
        """Total electric field energy ``(eps0/2) ∫ E² dV`` in joules."""
        dv = self.config.cell_volume
        total = float(np.sum(self.Ex ** 2) + np.sum(self.Ey ** 2) + np.sum(self.Ez ** 2))
        return 0.5 * constants.EPSILON_0 * total * dv

    def magnetic_energy(self) -> float:
        """Total magnetic field energy ``(1/(2 mu0)) ∫ B² dV`` in joules."""
        dv = self.config.cell_volume
        total = float(np.sum(self.Bx ** 2) + np.sum(self.By ** 2) + np.sum(self.Bz ** 2))
        return 0.5 / constants.MU_0 * total * dv

    def field_energy(self) -> float:
        """Total electromagnetic field energy in joules."""
        return self.electric_energy() + self.magnetic_energy()

    def divergence_b(self) -> np.ndarray:
        """Discrete ∇·B at cell centres; stays at round-off for the Yee scheme.

        Forward differences are the natural divergence for the B staggering
        (Bx at ``(i, j+1/2, k+1/2)`` etc.), making ``div(curl E) = 0`` an
        exact discrete identity.
        """
        dx, dy, dz = self.config.cell_size
        div = ((np.roll(self.Bx, -1, axis=0) - self.Bx) / dx
               + (np.roll(self.By, -1, axis=1) - self.By) / dy
               + (np.roll(self.Bz, -1, axis=2) - self.Bz) / dz)
        return div

    def divergence_j(self) -> np.ndarray:
        """Discrete ∇·J at cell nodes, matching the Esirkepov deposition stencil."""
        dx, dy, dz = self.config.cell_size
        return ((self.Jx - np.roll(self.Jx, 1, axis=0)) / dx
                + (self.Jy - np.roll(self.Jy, 1, axis=1)) / dy
                + (self.Jz - np.roll(self.Jz, 1, axis=2)) / dz)

    def component(self, name: str) -> np.ndarray:
        """Return a field component array by name (``"Ex"`` ... ``"rho"``)."""
        if name not in self._FIELDS:
            raise KeyError(f"unknown field component {name!r}")
        return getattr(self, name)
