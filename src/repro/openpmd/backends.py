"""Backends turning closed openPMD iterations into stored or streamed steps.

The openPMD standard is format agnostic; the reference implementation
supports JSON/HDF5/ADIOS2 backends, and its ADIOS2 backend can run on the
SST engine, which hands each closed iteration to the readers as one step
instead of writing a file.  Here:

* :class:`MemoryBackend` keeps iterations in a dict (testing, tight loops),
* :class:`JSONBackend` persists them as JSON + ``.npz`` files,
* :class:`StreamingBackend` puts each iteration as one
  :class:`repro.streaming.step.Step` on a broker — the in-transit path.

Serialisation layout (shared by all backends): every record component is a
flat array named ``meshes/<mesh>/<component>`` or
``particles/<species>/<record>/<component>``, and the iteration's time
attributes travel next to the arrays.  :func:`iteration_to_arrays` and
:func:`arrays_to_iteration` are the one codec between the two.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator

import numpy as np

from repro.openpmd.records import Record
from repro.openpmd.series import Iteration
from repro.streaming.step import Step

SCALAR = Record.SCALAR


def iteration_to_arrays(iteration: Iteration) -> Dict[str, np.ndarray]:
    """Flatten an iteration into ``path -> ndarray``."""
    arrays: Dict[str, np.ndarray] = {}
    for mesh_name, mesh in iteration.meshes.items():
        for comp_name, component in mesh.components().items():
            if component.empty:
                continue
            suffix = "" if comp_name == SCALAR else f"/{comp_name}"
            arrays[f"meshes/{mesh_name}{suffix}"] = component.load()
    for species_name, species in iteration.particles.items():
        for record_name, record in species.records().items():
            for comp_name, component in record.components().items():
                if component.empty:
                    continue
                suffix = "" if comp_name == SCALAR else f"/{comp_name}"
                arrays[f"particles/{species_name}/{record_name}{suffix}"] = component.load()
    return arrays


def iteration_attributes(iteration: Iteration) -> Dict[str, object]:
    return {"iteration": iteration.index, "time": iteration.time, "dt": iteration.dt,
            "timeUnitSI": iteration.time_unit_si}


def arrays_to_iteration(index: int, arrays: Dict[str, np.ndarray],
                        attributes: Dict[str, object]) -> Iteration:
    """Rebuild an :class:`Iteration` from the flattened representation."""
    iteration = Iteration(index)
    iteration.set_time(float(attributes.get("time", 0.0)),
                       float(attributes.get("dt", 0.0)),
                       float(attributes.get("timeUnitSI", 1.0)))
    for path, data in arrays.items():
        parts = path.split("/")
        if parts[0] == "meshes":
            mesh = iteration.get_mesh(parts[1])
            comp = parts[2] if len(parts) > 2 else SCALAR
            mesh[comp].store(data)
        elif parts[0] == "particles":
            species = iteration.get_particles(parts[1])
            record = species[parts[2]]
            comp = parts[3] if len(parts) > 3 else SCALAR
            record[comp].store(data)
        else:
            raise ValueError(f"unknown record path {path!r}")
    return iteration


class Backend:
    """Base class of series backends."""

    def put_iteration(self, iteration: Iteration) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def iterate(self) -> Iterator[Iteration]:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemoryBackend(Backend):
    """Keep closed iterations in memory (shared between writer and reader)."""

    def __init__(self) -> None:
        self._store: Dict[int, Iteration] = {}
        self._closed = False

    def put_iteration(self, iteration: Iteration) -> None:
        self._store[iteration.index] = iteration

    def iterate(self) -> Iterator[Iteration]:
        for index in sorted(self._store):
            yield self._store[index]

    def close(self) -> None:
        self._closed = True

    def __len__(self) -> int:
        return len(self._store)


class JSONBackend(Backend):
    """Persist iterations as ``<dir>/iteration_<n>.json`` + ``.npz`` pairs."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def put_iteration(self, iteration: Iteration) -> None:
        arrays = iteration_to_arrays(iteration)
        attrs = iteration_attributes(iteration)
        safe = {path.replace("/", "__"): data for path, data in arrays.items()}
        np.savez(os.path.join(self.directory, f"iteration_{iteration.index:06d}.npz"), **safe)
        with open(os.path.join(self.directory, f"iteration_{iteration.index:06d}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump({"attributes": attrs, "paths": list(arrays)}, handle)

    def iterate(self) -> Iterator[Iteration]:
        indices = sorted(int(f[len("iteration_"):-len(".json")])
                         for f in os.listdir(self.directory) if f.endswith(".json"))
        for index in indices:
            with open(os.path.join(self.directory, f"iteration_{index:06d}.json"),
                      encoding="utf-8") as handle:
                meta = json.load(handle)
            stored = np.load(os.path.join(self.directory, f"iteration_{index:06d}.npz"))
            arrays = {path: stored[path.replace("/", "__")] for path in meta["paths"]}
            yield arrays_to_iteration(index, arrays, meta["attributes"])


class StreamingBackend(Backend):
    """Put iterations on a broker as steps, or read them back off one.

    A CREATE series puts, a READ_LINEAR series iterates; the broker is an
    :class:`repro.streaming.broker.SSTBroker` or anything with its
    ``put_step`` / ``get_step`` / ``close``.  Iterations read from a stream
    are yielded exactly once and then dropped — the defining property of the
    in-transit workflow.
    """

    #: seconds a put or get may block before it raises: a deadlock guard,
    #: not a tuning knob
    TIMEOUT = 30.0

    def __init__(self, broker) -> None:
        self.broker = broker

    def put_iteration(self, iteration: Iteration) -> None:
        self.broker.put_step(Step(iteration.index, iteration_to_arrays(iteration),
                                  iteration_attributes(iteration)),
                             timeout=self.TIMEOUT)

    def iterate(self) -> Iterator[Iteration]:
        while True:
            step = self.broker.get_step(timeout=self.TIMEOUT)
            if step is None:
                return
            yield arrays_to_iteration(step.index, step.arrays, step.attributes)

    def close(self) -> None:
        """End the stream (writer) or leave it (reader)."""
        self.broker.close()
