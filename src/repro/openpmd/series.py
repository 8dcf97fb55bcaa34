"""Series: openPMD iterations written and read as steps.

A writer closes an iteration by putting it, as one
:class:`repro.streaming.step.Step`, on whatever the series was opened on; a
reader takes the steps off in order until the writer ends the stream.  On a
broker every step is read exactly once and then dropped — the "data is
produced on demand and discarded after being used for training" constraint
that motivates the paper's continual-learning approach; a
:class:`DirectoryStore` keeps the steps on disk instead.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Optional

import numpy as np

from repro.streaming.step import Step


class Series:
    """The writer or reader end of one stream or store of steps.

    ``broker`` is a :class:`repro.streaming.broker.SSTBroker`, a
    :class:`repro.workflow.fanout.FanOutBroker`, a :class:`DirectoryStore`
    or anything else with their ``put_step`` / ``get_step`` / ``close``.
    """

    def __init__(self, broker) -> None:
        self.broker = broker

    def close_iteration(self, step: Step) -> None:
        """Hand one finished iteration to the readers."""
        self.broker.put_step(step)

    def read_iterations(self) -> Iterator[Step]:
        """Yield the steps in order until the stream ends."""
        while True:
            step = self.broker.get_step()
            if step is None:
                return
            yield step

    def close(self) -> None:
        """End the stream (writer) or leave it (reader)."""
        self.broker.close()


class DirectoryStore:
    """Steps kept as ``<directory>/iteration_<n>.json`` + ``.npz`` pairs.

    A reader walks the iterations on disk once, in index order.  Writing an
    iteration that is already on disk raises :class:`FileExistsError`, so a
    second run into the same directory cannot mix its steps with the first.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._unread: Optional[Iterator[int]] = None

    def _path(self, index: int, suffix: str) -> str:
        return os.path.join(self.directory, f"iteration_{index:06d}{suffix}")

    def put_step(self, step: Step) -> None:
        if os.path.exists(self._path(step.index, ".json")):
            raise FileExistsError(
                f"iteration {step.index} is already in {self.directory!r}")
        np.savez(self._path(step.index, ".npz"),
                 **{path.replace("/", "__"): data for path, data in step.arrays.items()})
        with open(self._path(step.index, ".json"), "w", encoding="utf-8") as handle:
            json.dump({"attributes": step.attributes, "paths": list(step.arrays)}, handle)

    def get_step(self) -> Optional[Step]:
        if self._unread is None:
            self._unread = iter(sorted(
                int(name[len("iteration_"):-len(".json")])
                for name in os.listdir(self.directory) if name.endswith(".json")))
        index = next(self._unread, None)
        if index is None:
            return None
        with open(self._path(index, ".json"), encoding="utf-8") as handle:
            meta = json.load(handle)
        with np.load(self._path(index, ".npz")) as stored:
            arrays = {path: stored[path.replace("/", "__")] for path in meta["paths"]}
        return Step(index, arrays, meta["attributes"])

    def close(self) -> None:
        """Nothing to flush: a step is on disk once :meth:`put_step` returns."""
