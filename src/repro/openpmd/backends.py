"""Backends turning closed openPMD iterations into stored or streamed steps.

The openPMD standard is format agnostic; the reference implementation
supports JSON/HDF5/ADIOS2 backends.  Here:

* :class:`MemoryBackend` keeps iterations in a dict (testing, tight loops),
* :class:`JSONBackend` persists them as JSON + ``.npz`` files,
* :class:`StreamingBackend` forwards them through a
  :mod:`repro.streaming` writer/reader engine — the in-transit path.

Serialisation layout (shared by all backends): every record component is a
flat variable named ``meshes/<mesh>/<component>`` or
``particles/<species>/<record>/<component>``, and iteration/record
attributes travel in the step's attribute dictionary.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, Optional

import numpy as np

from repro.openpmd.records import Record
from repro.openpmd.series import Iteration
from repro.streaming.engine import SSTReaderEngine, SSTWriterEngine
from repro.streaming.step import Step, StepStatus
from repro.streaming.variable import Block, Variable

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

    def attach(self, series) -> None:
        self.series = series

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
    """Forward iterations through a streaming writer/reader engine.

    Construct it with a *writer* engine for CREATE series and with a
    *reader* engine for READ_LINEAR series.  Iterations read from a stream
    are yielded exactly once and then dropped — the defining property of the
    in-transit workflow.
    """

    def __init__(self, writer: Optional[SSTWriterEngine] = None,
                 reader: Optional[SSTReaderEngine] = None,
                 rank: int = 0) -> None:
        if (writer is None) == (reader is None):
            raise ValueError("provide exactly one of writer or reader")
        self.writer = writer
        self.reader = reader
        self.rank = int(rank)

    # -- writer ----------------------------------------------------------- #
    def put_iteration(self, iteration: Iteration) -> None:
        if self.writer is None:
            raise RuntimeError("this backend was configured for reading")
        arrays = iteration_to_arrays(iteration)
        self.writer.begin_step()
        for path, data in arrays.items():
            self.writer.put(path, data, rank=self.rank)
        self.writer.put_attributes(iteration_attributes(iteration))
        self.writer.end_step()

    # -- reader ------------------------------------------------------------- #
    def iterate(self) -> Iterator[Iteration]:
        if self.reader is None:
            raise RuntimeError("this backend was configured for writing")
        while True:
            status = self.reader.begin_step()
            if status is not StepStatus.OK:
                return
            attributes = self.reader.attributes()
            arrays = {name: self.reader.get(name)
                      for name in self.reader.available_variables()}
            self.reader.end_step()
            index = int(attributes.get("iteration", 0))
            yield arrays_to_iteration(index, arrays, attributes)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        if self.reader is not None:
            self.reader.close()
