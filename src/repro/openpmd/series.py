"""Series and Iteration: the top of the openPMD hierarchy.

A writer creates iterations, fills meshes/particles and *closes* them; a
closed iteration is handed to the backend, which either stores it (memory /
JSON) or streams it as one step (SST-style).  A reader iterates over
available iterations in order; with a streaming backend each iteration can
only be read once and is dropped afterwards — exactly the "data is produced
on demand and discarded after being used for training" constraint that
motivates the paper's continual-learning approach.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional

from repro.openpmd.records import Attributable, Mesh, ParticleSpecies


class Access(enum.Enum):
    """Access modes of a :class:`Series` (subset of openPMD-api's)."""

    CREATE = "create"
    READ_LINEAR = "read_linear"


class Iteration(Attributable):
    """One simulation time step's worth of meshes and particle records."""

    def __init__(self, index: int) -> None:
        super().__init__()
        self.index = int(index)
        self.time: float = 0.0
        self.dt: float = 0.0
        self.time_unit_si: float = 1.0
        self.meshes: Dict[str, Mesh] = {}
        self.particles: Dict[str, ParticleSpecies] = {}
        self._closed = False

    # -- structure -------------------------------------------------------- #
    def get_mesh(self, name: str) -> Mesh:
        if name not in self.meshes:
            self.meshes[name] = Mesh(name)
        return self.meshes[name]

    def get_particles(self, name: str) -> ParticleSpecies:
        if name not in self.particles:
            self.particles[name] = ParticleSpecies(name)
        return self.particles[name]

    def set_time(self, time: float, dt: float, time_unit_si: float = 1.0) -> "Iteration":
        self.time = float(time)
        self.dt = float(dt)
        self.time_unit_si = float(time_unit_si)
        self.set_attribute("time", self.time)
        self.set_attribute("dt", self.dt)
        self.set_attribute("timeUnitSI", self.time_unit_si)
        return self

    # -- lifecycle ---------------------------------------------------------- #
    @property
    def closed(self) -> bool:
        return self._closed

    def mark_closed(self) -> None:
        self._closed = True

    @property
    def nbytes(self) -> int:
        total = sum(m.nbytes for m in self.meshes.values())
        total += sum(p.nbytes for p in self.particles.values())
        return total


class Series:
    """A stream or store of iterations.

    Parameters
    ----------
    name:
        Series name (used as file prefix / stream name).
    access:
        :attr:`Access.CREATE` for writers, :attr:`Access.READ_LINEAR` for
        readers.
    backend:
        A :class:`repro.openpmd.backends.Backend` instance.  The backend
        decides whether closing an iteration writes a file, keeps it in
        memory or streams it in-transit.
    """

    def __init__(self, name: str, access: Access, backend) -> None:
        self.name = name
        self.access = access
        self.backend = backend
        self._iterations: Dict[int, Iteration] = {}
        self._closed_indices: set = set()

    # -- writer API ---------------------------------------------------------- #
    def write_iteration(self, index: int) -> Iteration:
        """Create (or fetch the still-open) iteration ``index`` for writing."""
        if self.access is not Access.CREATE:
            raise RuntimeError("write_iteration requires CREATE access")
        if index in self._closed_indices:
            raise RuntimeError(f"iteration {index} was already closed")
        iteration = self._iterations.setdefault(index, Iteration(index))
        return iteration

    def close_iteration(self, index: int) -> None:
        """Close an iteration: hand it to the backend and drop the local copy."""
        if index not in self._iterations:
            raise KeyError(f"iteration {index} is not open")
        iteration = self._iterations.pop(index)
        iteration.mark_closed()
        self._closed_indices.add(index)
        self.backend.put_iteration(iteration)

    # -- reader API ------------------------------------------------------------ #
    def read_iterations(self) -> Iterator[Iteration]:
        """Iterate over available iterations in order (blocking on streams)."""
        if self.access is not Access.READ_LINEAR:
            raise RuntimeError("read_iterations requires READ_LINEAR access")
        yield from self.backend.iterate()

    # -- common ------------------------------------------------------------------ #
    @property
    def open_iterations(self) -> Dict[int, Iteration]:
        return dict(self._iterations)

    def close(self) -> None:
        """Close the series and its backend (ends the stream for readers)."""
        self.backend.close()
