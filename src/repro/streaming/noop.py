"""The no-op consumer used by the full-scale streaming benchmark.

"Employing the no-op consumer gives us a testbed for full-system scaling
runs of a particle data stream fed by PIConGPU, helping us identify and
eliminate scaling issues before applying the full PIConGPU+MLapp pipeline"
(Section IV-B).  The consumer takes every step off the stream, measures
the time needed for loading it, and discards it.
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

    def run(self) -> int:
        """Consume the next step (a writer alternates its puts with this);
        returns 1, or 0 once the stream has ended."""
        start = time.perf_counter()
        if self.broker.get_step() is None:
            return 0
        self.step_times.append(time.perf_counter() - start)
        return 1
