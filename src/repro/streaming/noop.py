"""The no-op consumer used by the full-scale streaming benchmark.

"Employing the no-op consumer gives us a testbed for full-system scaling
runs of a particle data stream fed by PIConGPU, helping us identify and
eliminate scaling issues before applying the full PIConGPU+MLapp pipeline"
(Section IV-B).  The consumer reads every variable of every step, measures
the time needed for loading the data, and discards it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.streaming.dataplane import DataPlane
from repro.streaming.engine import SSTReaderEngine
from repro.streaming.step import StepStatus


@dataclass
class NoOpConsumer:
    """Read steps from a reader engine, measure, and discard.

    Parameters
    ----------
    reader:
        The reader engine to drain.
    data_plane:
        Optional data-plane model; its predicted transfer time is *added* to
        the measured in-process load time so that the same consumer can be
        used both for real in-memory runs and for modelled scaling studies.
    n_nodes:
        Number of nodes assumed by the data-plane model.
    """

    reader: SSTReaderEngine
    data_plane: Optional[DataPlane] = None
    n_nodes: int = 1
    enqueue_strategy: str = "batched"
    step_times: List[float] = field(default_factory=list)
    step_bytes: List[int] = field(default_factory=list)

    def run(self, max_steps: Optional[int] = None) -> int:
        """Drain the stream (or ``max_steps`` of it); returns steps consumed."""
        consumed = 0
        while max_steps is None or consumed < max_steps:
            status = self.reader.begin_step()
            if status is not StepStatus.OK:
                break
            start = time.perf_counter()
            nbytes = 0
            for name in self.reader.available_variables():
                data = self.reader.get(name)
                nbytes += int(data.nbytes)
            elapsed = time.perf_counter() - start
            if self.data_plane is not None:
                elapsed += self.data_plane.transfer_time(
                    nbytes, n_nodes=self.n_nodes,
                    enqueue_strategy=self.enqueue_strategy)
            self.reader.end_step()
            self.step_times.append(elapsed)
            self.step_bytes.append(nbytes)
            consumed += 1
        return consumed

    @property
    def total_bytes(self) -> int:
        return sum(self.step_bytes)

    @property
    def mean_step_time(self) -> float:
        if not self.step_times:
            raise RuntimeError("the consumer has not read any step yet")
        return sum(self.step_times) / len(self.step_times)
