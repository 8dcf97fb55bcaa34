"""The in-transit training loop.

For every streamed simulation step the trainer runs ``n_rep`` iterations of
the training loop, each on a fresh batch drawn from the training buffer.
The paper emphasises that this replay-iteration count is the knob that lets
the optimiser explore sequentially ("a smaller number of training iterations
cannot be compensated by the large batch sizes of data-parallel training")
and that it may stall the simulation if training falls behind — which the
bounded streaming queue makes explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.continual.buffer import TrainingBuffer, TrainingSample
from repro.mlcore.optim import Optimizer
from repro.mlcore.tensor import Tensor
from repro.models.losses import CombinedLoss
from repro.models.model import ArtificialScientistModel
from repro.telemetry.spans import Timer


@dataclass
class TrainingHistory:
    """Per-iteration loss terms recorded during in-transit training."""

    steps: List[int] = field(default_factory=list)
    terms: List[Dict[str, float]] = field(default_factory=list)

    def append(self, step: int, terms: Dict[str, float]) -> None:
        self.steps.append(step)
        self.terms.append(dict(terms))

    def series(self, name: str) -> np.ndarray:
        """Time series of one loss term across all recorded iterations."""
        return np.asarray([t[name] for t in self.terms])

    def mean_over_last(self, n: int, name: str = "total") -> float:
        values = self.series(name)
        return float(values[-n:].mean())

    def __len__(self) -> int:
        return len(self.terms)


class InTransitTrainer:
    """Couples the training buffer, the model and the optimiser.

    Parameters
    ----------
    model, optimizer, buffer:
        The model being trained, its optimiser and the experience-replay
        buffer.
    loss:
        The combined Eq. (1) loss.
    n_rep:
        Training iterations per streamed simulation step (paper: up to 96
        explored, learning success up to about 48).
    """

    def __init__(self, model: ArtificialScientistModel, optimizer: Optimizer,
                 buffer: TrainingBuffer, loss: CombinedLoss,
                 n_rep: int = 4) -> None:
        if n_rep < 1:
            raise ValueError("n_rep must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.buffer = buffer
        self.loss = loss
        self.n_rep = int(n_rep)
        self.history = TrainingHistory()
        self.timer = Timer("continual")
        self.samples_consumed = 0

    # -- the in-transit step --------------------------------------------------- #
    def train_on_stream_step(self, samples: Sequence[TrainingSample], step: int) -> float:
        """Ingest freshly streamed samples and run ``n_rep`` training iterations.

        Returns the mean total loss over the iterations of this stream step.
        """
        with self.timer.section("ingest"):
            self.buffer.add_many(list(samples))
            self.samples_consumed += len(samples)
        totals = []
        for _ in range(self.n_rep):
            totals.append(self.train_iteration(step))
        return float(np.mean(totals))

    def train_iteration(self, step: int) -> float:
        """One optimisation step on one batch drawn from the buffer."""
        with self.timer.section("batch"):
            clouds, spectra = self.buffer.batch_arrays()
        with self.timer.section("forward"):
            output = self.model(Tensor(clouds), Tensor(spectra))
            total = self.loss(output, Tensor(clouds), Tensor(spectra))
        with self.timer.section("backward"):
            self.optimizer.zero_grad()
            total.backward()
        with self.timer.section("optimizer"):
            self.optimizer.step()
        self.history.append(step, self.loss.last_terms)
        return float(total.item())

    # -- evaluation -------------------------------------------------------------- #
    def evaluate(self, samples: Sequence[TrainingSample]) -> Dict[str, float]:
        """Evaluate the loss terms on held-out samples without updating weights."""
        if not samples:
            raise ValueError("need at least one sample to evaluate")
        clouds = np.stack([s.point_cloud for s in samples], axis=0)
        spectra = np.stack([s.spectrum for s in samples], axis=0)
        was_training = self.model.training
        self.model.eval()
        try:
            output = self.model(Tensor(clouds), Tensor(spectra))
            self.loss(output, Tensor(clouds), Tensor(spectra))
            return dict(self.loss.last_terms)
        finally:
            self.model.train(was_training)
