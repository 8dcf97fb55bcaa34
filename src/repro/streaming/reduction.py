"""In-stream data reduction (Fig. 3b).

"Reducing simulation data close to the producer lowers bandwidth
requirements" — the second of the three streaming aspects the paper
identifies.  The producer hands each step's raw particle records to
:meth:`ReductionPipeline.reduce_step` before they enter the stream.

Reduction is *lossy* in general (that is the point: "often done by
discarding highly valuable data in practice"); the in-transit workflow makes
the loss explicit and controllable instead of dropping whole time steps.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class ReductionPipeline:
    """Keep a random ``fraction`` of a step's particles, then cast to float32.

    The radiation/ML pipeline does not need every macro-particle: a sample
    preserves the local phase-space distribution while cutting bandwidth
    proportionally, and the ML model gains nothing from float64's extra
    mantissa bits.  One selection per step, shared by every record, keeps
    positions, momenta and weights in matching rows; the weighting record is
    rescaled so integrated quantities are preserved in expectation.
    """

    def __init__(self, fraction: float, to_float32: bool,
                 rng: np.random.Generator) -> None:
        self.fraction = fraction
        self.to_float32 = to_float32
        self.rng = rng

    def reduce_step(self, records: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Reduce one step's raw particle records: equal-length float64
        arrays keyed by openPMD path."""
        if self.fraction < 1.0:
            n = len(next(iter(records.values())))
            keep = max(1, int(round(self.fraction * n)))
            selection = np.sort(self.rng.choice(n, size=keep, replace=False))
            records = {path: data[selection] for path, data in records.items()}
            for path in records:
                if path.endswith("/weighting"):
                    records[path] = records[path] * (n / keep)
        if self.to_float32:
            records = {path: data.astype(np.float32) for path, data in records.items()}
        return records
