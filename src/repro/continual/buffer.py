"""The training buffer: experience replay between stream and training loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


#: Paper defaults (Section IV-C).
PAPER_NOW_BUFFER_SIZE = 10
PAPER_EP_BUFFER_SIZE = 20
PAPER_N_NOW = 4
PAPER_N_EP = 4


@dataclass
class TrainingSample:
    """One training example streamed out of the simulation.

    Attributes
    ----------
    point_cloud:
        ``(n_points, 6)`` array of normalised positions and momenta of the
        particles in one sub-volume.
    spectrum:
        ``(spectrum_dim,)`` encoded radiation spectrum of the same
        sub-volume.
    step:
        Simulation step the sample was produced at.
    region:
        Free-form region label ("approaching", "receding", "vortex", ...).
    """

    point_cloud: np.ndarray
    spectrum: np.ndarray
    step: int = 0
    region: str = ""

    def __post_init__(self) -> None:
        self.point_cloud = np.asarray(self.point_cloud, dtype=np.float64)
        self.spectrum = np.asarray(self.spectrum, dtype=np.float64)
        if self.point_cloud.ndim != 2:
            raise ValueError("point_cloud must be a 2D (n_points, features) array")
        if self.spectrum.ndim != 1:
            raise ValueError("spectrum must be a 1D array")


class TrainingBuffer:
    """Now-buffer + EP-buffer experience replay (Chaudhry et al. 2019 style).

    Parameters
    ----------
    now_size, ep_size:
        Capacities of the two buffers (paper: 10 and 20).
    n_ep:
        EP samples per batch; :data:`PAPER_N_NOW` come from the now-buffer
        (paper: 4 + 4 = batch size 8).
    rng:
        Random source for sampling and eviction.
    """

    def __init__(self, now_size: int = PAPER_NOW_BUFFER_SIZE,
                 ep_size: int = PAPER_EP_BUFFER_SIZE,
                 n_ep: int = PAPER_N_EP, *, rng: np.random.Generator) -> None:
        if now_size < 1 or ep_size < 0:
            raise ValueError("now_size must be >= 1 and ep_size >= 0")
        if n_ep < 0:
            raise ValueError("n_ep must be >= 0")
        self.now_size = int(now_size)
        self.ep_size = int(ep_size)
        self.n_now = PAPER_N_NOW
        self.n_ep = int(n_ep)
        self.rng = rng
        self._now: List[TrainingSample] = []
        self._ep: List[TrainingSample] = []

    # -- ingestion --------------------------------------------------------- #
    def add(self, sample: TrainingSample) -> None:
        """Prepend a new sample to the now-buffer, spilling the overflow to EP."""
        self._now.insert(0, sample)
        while len(self._now) > self.now_size:
            spilled = self._now.pop()
            self._add_to_ep(spilled)

    def add_many(self, samples: Sequence[TrainingSample]) -> None:
        for sample in samples:
            self.add(sample)

    def _add_to_ep(self, sample: TrainingSample) -> None:
        if self.ep_size == 0:
            return
        if len(self._ep) >= self.ep_size:
            victim = int(self.rng.integers(0, len(self._ep)))
            self._ep.pop(victim)
        self._ep.append(sample)

    # -- sampling ------------------------------------------------------------ #
    def sample_batch(self) -> List[TrainingSample]:
        """Draw a training batch of up to ``n_now + n_ep`` samples.

        Now-samples come from the now-buffer and replay samples from the EP
        buffer; while the EP buffer is still empty (early in the stream) its
        share is drawn from the now-buffer instead, so training can start
        with the very first streamed step.
        """
        if not self._now and not self._ep:
            raise RuntimeError("cannot sample from an empty training buffer")
        batch: List[TrainingSample] = []
        n_now = self.n_now
        n_ep = self.n_ep
        if not self._ep:
            n_now, n_ep = n_now + n_ep, 0
        if not self._now:
            n_now, n_ep = 0, n_now + n_ep
        if n_now:
            idx = self.rng.integers(0, len(self._now), size=n_now)
            batch.extend(self._now[i] for i in idx)
        if n_ep:
            idx = self.rng.integers(0, len(self._ep), size=n_ep)
            batch.extend(self._ep[i] for i in idx)
        return batch

    def batch_arrays(self) -> tuple:
        """Sample a batch and stack it into ``(point_clouds, spectra)`` arrays."""
        batch = self.sample_batch()
        clouds = np.stack([s.point_cloud for s in batch], axis=0)
        spectra = np.stack([s.spectrum for s in batch], axis=0)
        return clouds, spectra

    # -- introspection ----------------------------------------------------------- #
    @property
    def now_count(self) -> int:
        return len(self._now)

    @property
    def ep_count(self) -> int:
        return len(self._ep)
