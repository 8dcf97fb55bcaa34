"""The no-op consumer used by the full-scale streaming benchmark.

"Employing the no-op consumer gives us a testbed for full-system scaling
runs of a particle data stream fed by PIConGPU, helping us identify and
eliminate scaling issues before applying the full PIConGPU+MLapp pipeline"
(Section IV-B).  The consumer reads every array of every step, measures
the time needed for loading the data, and discards it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.streaming.broker import SSTBroker


@dataclass
class NoOpConsumer:
    """Drain steps from a broker, measure, and discard."""

    broker: SSTBroker
    step_times: List[float] = field(default_factory=list)
    step_bytes: List[int] = field(default_factory=list)

    def run(self, max_steps: Optional[int] = None) -> int:
        """Drain the stream (or ``max_steps`` of it); returns steps consumed."""
        consumed = 0
        while max_steps is None or consumed < max_steps:
            step = self.broker.get_step()
            if step is None:
                break
            start = time.perf_counter()
            nbytes = step.nbytes
            self.step_times.append(time.perf_counter() - start)
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
