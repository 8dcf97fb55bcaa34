"""The MLapp: the consumer application training the model in transit."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.analysis.regions import REGION_NAMES
from repro.continual.buffer import TrainingBuffer, TrainingSample
from repro.continual.trainer import InTransitTrainer
from repro.core.config import MLConfig
from repro.core.producer import POINT_CLOUDS, REGIONS, SPECTRA
from repro.mlcore.optim import Adam, make_block_param_groups
from repro.models.losses import CombinedLoss
from repro.models.model import ArtificialScientistModel
from repro.openpmd.series import Series
from repro.streaming.step import Step
from repro.telemetry.spans import Timer
from repro.utils.rng import RandomState, seeded_rng

#: l_VAE / l_INN (``m_VAE``, Sec. V-A1): every run here trains both blocks
#: at one rate
M_VAE = 1.0


def build_trainer(config: MLConfig, rng: RandomState = None) -> InTransitTrainer:
    """The model, block-rate Adam, replay buffer and trainer ``config``
    describes — what an :class:`MLApp` trains with."""
    rng = seeded_rng(rng)
    model = ArtificialScientistModel(config.model, rng=rng)
    groups = make_block_param_groups(model.vae_parameters(), model.inn_parameters(),
                                     config.base_learning_rate, M_VAE)
    optimizer = Adam(groups, lr=config.base_learning_rate)
    buffer = TrainingBuffer(now_size=config.now_buffer_size,
                            ep_size=config.ep_buffer_size,
                            n_ep=config.n_ep, rng=rng)
    return InTransitTrainer(model, optimizer, buffer, loss=CombinedLoss(),
                            n_rep=config.n_rep)


class MLApp:
    """Reads openPMD iterations from a stream and trains the model on them.

    The MLapp is an application of its own in the paper (PyTorch + DDP); it
    shares no code with the simulation apart from the openPMD data
    interface, which is exactly the boundary this class respects: its only
    input is the reader end of a :class:`repro.openpmd.Series`, and of each
    streamed :class:`repro.streaming.Step` it reads the ``ml_samples``
    records laid out by :mod:`repro.core.producer`.
    """

    def __init__(self, series: Series, config: MLConfig, rng: RandomState = None) -> None:
        self.series = series
        self.trainer = build_trainer(config, rng)
        self.model = self.trainer.model
        self.timer = Timer("core")
        self.iterations_consumed = 0
        self.evaluation_samples: List[TrainingSample] = []

    # -- stream consumption ----------------------------------------------------- #
    @staticmethod
    def samples_from_iteration(step: Step) -> List[TrainingSample]:
        """Decode the ML sample records written by the producer plugin."""
        arrays = step.arrays
        return [TrainingSample(point_cloud=cloud, spectrum=spectrum, step=step.index,
                               region=REGION_NAMES[int(region)])
                for cloud, spectrum, region in zip(arrays[POINT_CLOUDS], arrays[SPECTRA],
                                                   arrays[REGIONS])]

    def consume(self, max_iterations: Optional[int] = None,
                keep_for_evaluation: int = 0,
                on_iteration: Optional[Callable[[int, int], None]] = None) -> int:
        """Read up to ``max_iterations`` from the stream and train on them.

        Parameters
        ----------
        keep_for_evaluation:
            Number of samples per iteration to additionally copy into
            :attr:`evaluation_samples` (held out for the Fig. 9 analysis;
            they are still trained on, as the paper evaluates on streamed
            data too).
        on_iteration:
            Called as ``on_iteration(iteration_index, n_samples)`` after
            each streamed iteration has been trained on — the lifecycle
            hook the workflow drivers use for back-pressure accounting.
        """
        consumed = 0
        for step in self.series.read_iterations():
            with self.timer.section("decode"):
                samples = self.samples_from_iteration(step)
            if keep_for_evaluation:
                self.evaluation_samples.extend(samples[:keep_for_evaluation])
            with self.timer.section("train"):
                self.trainer.train_on_stream_step(samples, step=step.index)
            self.iterations_consumed += 1
            consumed += 1
            if on_iteration is not None:
                on_iteration(step.index, len(samples))
            if max_iterations is not None and consumed >= max_iterations:
                break
        return consumed

    # -- reporting ---------------------------------------------------------------- #
    @property
    def history(self):
        return self.trainer.history

    def loss_summary(self) -> Dict[str, float]:
        if len(self.history) == 0:
            return {}
        window = min(len(self.history), 10)
        return {name: self.history.mean_over_last(window, name)
                for name in ("total", "chamfer", "kl", "mse", "mmd_latent", "mmd_normal")}
