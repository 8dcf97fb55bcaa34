"""An openPMD-like object model for particle-mesh data.

openPMD is the data standard the paper uses to describe simulation output
(meshes and particle records with unit metadata) independently of the
transport backend: the same writer code can target HDF5/JSON files or the
ADIOS2 SST streaming engine, which hands every closed iteration to the
readers as one step over the network.  This subpackage reproduces the
object model of the openPMD-api (Series → Iteration → Mesh /
ParticleSpecies → Record → RecordComponent) with three backends:

* :class:`repro.openpmd.backends.MemoryBackend` — keeps iterations in
  memory (useful for tests and tight loops),
* :class:`repro.openpmd.backends.JSONBackend` — writes one JSON + ``.npz``
  pair per iteration (the classical file-based workflow the paper moves
  away from),
* :class:`repro.openpmd.backends.StreamingBackend` — puts every closed
  iteration as one flat-array step on a :mod:`repro.streaming` broker, the
  in-process stand-in for SST (the in-transit workflow of the paper).
"""

from repro.openpmd.records import (Attributable, Mesh, ParticleSpecies, Record,
                                   RecordComponent)
from repro.openpmd.series import Access, Iteration, Series
from repro.openpmd.backends import (Backend, JSONBackend, MemoryBackend,
                                    StreamingBackend)

__all__ = [
    "Access",
    "Attributable",
    "Backend",
    "Iteration",
    "JSONBackend",
    "MemoryBackend",
    "Mesh",
    "ParticleSpecies",
    "Record",
    "RecordComponent",
    "Series",
    "StreamingBackend",
]
