"""In-stream data reduction (Fig. 3b).

"Reducing simulation data close to the producer lowers bandwidth
requirements" — the second of the three streaming aspects the paper
identifies.  The reducers below operate on the per-step variables before
they enter the stream; they are composable and each reports the compression
factor it achieved so the workflow can account for the saved bandwidth.

Reduction is *lossy* in general (that is the point: "often done by
discarding highly valuable data in practice"); the in-transit workflow makes
the loss explicit and controllable instead of dropping whole time steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import RandomState, seeded_rng


class Reducer:
    """Base class of in-stream reducers."""

    name: str = "identity"

    def reduce(self, name: str, data: np.ndarray) -> np.ndarray:
        """Return the reduced payload for variable ``name``."""
        raise NotImplementedError

    def factor(self, original: np.ndarray, reduced: np.ndarray) -> float:
        """Compression factor achieved (original bytes / reduced bytes)."""
        reduced_bytes = max(int(np.asarray(reduced).nbytes), 1)
        return float(np.asarray(original).nbytes) / reduced_bytes


class PrecisionReducer(Reducer):
    """Cast floating-point payloads to a narrower dtype (e.g. float32/float16).

    The cheapest, always-applicable reduction: PIC particle data is produced
    in float64/float32 but the ML model does not benefit from the extra
    mantissa bits.
    """

    name = "precision"

    def __init__(self, dtype=np.float32) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError("PrecisionReducer requires a floating-point target dtype")

    def reduce(self, name: str, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data)
        if data.dtype.kind != "f" or data.dtype.itemsize <= self.dtype.itemsize:
            return data
        return data.astype(self.dtype)


class ParticleSubsampleReducer(Reducer):
    """Keep a random fraction of the particles (rows of 2D arrays).

    Matches the paper's observation that the radiation/ML pipeline does not
    need every macro-particle: a representative sample preserves the local
    phase-space distribution while cutting bandwidth proportionally.
    Weight-like variables (1D) are scaled so integrated quantities are
    preserved in expectation.
    """

    name = "particle_subsample"

    def __init__(self, fraction: float, rng: RandomState = None,
                 particle_prefixes: Sequence[str] = ("particles/",)) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        self.fraction = float(fraction)
        self.rng = seeded_rng(rng)
        self.particle_prefixes = tuple(particle_prefixes)
        self._selection_cache: Dict[Tuple[int, int], np.ndarray] = {}

    def _selection(self, n: int, step_key: int) -> np.ndarray:
        key = (step_key, n)
        if key not in self._selection_cache:
            keep = max(1, int(round(self.fraction * n)))
            self._selection_cache[key] = np.sort(self.rng.choice(n, size=keep, replace=False))
        return self._selection_cache[key]

    def new_step(self) -> None:
        """Reset the per-step selection cache (call once per streamed step)."""
        self._selection_cache.clear()

    def reduce(self, name: str, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data)
        if not any(name.startswith(p) for p in self.particle_prefixes) or data.ndim == 0:
            return data
        n = data.shape[0]
        selection = self._selection(n, step_key=0)
        reduced = data[selection]
        if "weight" in name.lower():
            # weight-like record: rescale so the total is preserved in expectation
            reduced = reduced * (n / len(selection))
        return reduced


@dataclass
class ReductionReport:
    """Bytes before/after one step's reduction."""

    original_bytes: int
    reduced_bytes: int
    per_variable: Dict[str, float]

    @property
    def factor(self) -> float:
        return self.original_bytes / max(self.reduced_bytes, 1)

    @property
    def saved_fraction(self) -> float:
        if self.original_bytes == 0:
            return 0.0
        return 1.0 - self.reduced_bytes / self.original_bytes


class ReductionPipeline(Reducer):
    """Apply several reducers in sequence and keep per-step statistics."""

    name = "pipeline"

    def __init__(self, reducers: Sequence[Reducer]) -> None:
        self.reducers = list(reducers)
        self.reports: List[ReductionReport] = []

    def reduce(self, name: str, data: np.ndarray) -> np.ndarray:
        reduced = np.asarray(data)
        for reducer in self.reducers:
            reduced = reducer.reduce(name, reduced)
        return reduced

    def reduce_step(self, variables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Reduce a whole step's variables and record a report."""
        for reducer in self.reducers:
            if isinstance(reducer, ParticleSubsampleReducer):
                reducer.new_step()
        original_bytes = 0
        reduced_bytes = 0
        per_variable: Dict[str, float] = {}
        out: Dict[str, np.ndarray] = {}
        for name, data in variables.items():
            data = np.asarray(data)
            reduced = self.reduce(name, data)
            out[name] = reduced
            original_bytes += data.nbytes
            reduced_bytes += reduced.nbytes
            per_variable[name] = data.nbytes / max(reduced.nbytes, 1)
        self.reports.append(ReductionReport(original_bytes=original_bytes,
                                            reduced_bytes=reduced_bytes,
                                            per_variable=per_variable))
        return out

    def total_factor(self) -> float:
        """Aggregate compression factor over all reduced steps."""
        original = sum(r.original_bytes for r in self.reports)
        reduced = sum(r.reduced_bytes for r in self.reports)
        return original / max(reduced, 1)
