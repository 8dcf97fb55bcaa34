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
from typing import List

from repro.streaming.broker import SSTBroker


@dataclass
class NoOpConsumer:
    """Drain steps from a broker, measure, and discard."""

    broker: SSTBroker
    step_times: List[float] = field(default_factory=list)
    step_bytes: List[int] = field(default_factory=list)

    def run(self) -> int:
        """Consume the next step (a writer alternates its puts with this);
        returns 1, or 0 once the stream has ended."""
        step = self.broker.get_step()
        if step is None:
            return 0
        start = time.perf_counter()
        nbytes = step.nbytes
        self.step_times.append(time.perf_counter() - start)
        self.step_bytes.append(nbytes)
        return 1
