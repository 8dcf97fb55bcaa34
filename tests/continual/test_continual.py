"""Tests of the experience-replay buffer and the in-transit trainer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continual import InTransitTrainer, TrainingBuffer, TrainingSample
from repro.continual.buffer import (PAPER_EP_BUFFER_SIZE, PAPER_N_EP, PAPER_N_NOW,
                                    PAPER_NOW_BUFFER_SIZE)
from repro.mlcore.optim import Adam, make_block_param_groups
from repro.models import ArtificialScientistModel, CombinedLoss
from repro.models.config import POINT_DIM, ModelConfig


CFG = ModelConfig()


def make_sample(step: int, rng, config=CFG) -> TrainingSample:
    return TrainingSample(
        point_cloud=rng.normal(size=(config.n_input_points, POINT_DIM)),
        spectrum=rng.random(config.spectrum_dim),
        step=step, region="bulk")


class TestTrainingSample:
    def test_validation(self, rng):
        with pytest.raises(ValueError):
            TrainingSample(point_cloud=rng.random(5), spectrum=rng.random(4))
        with pytest.raises(ValueError):
            TrainingSample(point_cloud=rng.random((5, 6)), spectrum=rng.random((4, 2)))


class TestTrainingBuffer:
    def test_paper_defaults(self, rng):
        buffer = TrainingBuffer(rng=rng)
        assert buffer.now_size == PAPER_NOW_BUFFER_SIZE == 10
        assert buffer.ep_size == PAPER_EP_BUFFER_SIZE == 20
        assert buffer.n_now == PAPER_N_NOW == 4
        assert buffer.n_ep == PAPER_N_EP == 4

    def test_now_buffer_spills_to_ep(self, rng):
        buffer = TrainingBuffer(now_size=3, ep_size=5, rng=rng)
        for step in range(6):
            buffer.add(make_sample(step, rng))
        assert buffer.now_count == 3
        assert buffer.ep_count == 3
        # the newest samples are in the now-buffer
        assert sorted([s.step for s in buffer._now]) == [3, 4, 5]
        assert sorted([s.step for s in buffer._ep]) == [0, 1, 2]

    def test_ep_buffer_evicts_randomly_when_full(self, rng):
        buffer = TrainingBuffer(now_size=2, ep_size=4, rng=rng)
        for step in range(20):
            buffer.add(make_sample(step, rng))
        assert buffer.ep_count == 4
        # the now-buffer holds the newest two, the EP buffer four of the rest
        assert sorted(s.step for s in buffer._now) == [18, 19]
        assert {s.step for s in buffer._ep} <= set(range(18))

    def test_sample_batch_mixture(self, rng):
        buffer = TrainingBuffer(now_size=5, ep_size=10, n_ep=2, rng=rng)
        for step in range(20):
            buffer.add(make_sample(step, rng))
        batch = buffer.sample_batch()
        assert len(batch) == 6
        now_steps = set([s.step for s in buffer._now])
        from_now = sum(1 for s in batch if s.step in now_steps)
        assert from_now == PAPER_N_NOW == 4

    def test_sample_before_ep_filled_uses_now_only(self, rng):
        buffer = TrainingBuffer(now_size=10, ep_size=20, n_ep=4, rng=rng)
        buffer.add(make_sample(0, rng))
        batch = buffer.sample_batch()
        assert len(batch) == 8
        assert all(s.step == 0 for s in batch)

    def test_sample_empty_raises(self, rng):
        with pytest.raises(RuntimeError):
            TrainingBuffer(rng=rng).sample_batch()

    def test_batch_arrays_shapes(self, rng):
        buffer = TrainingBuffer(rng=rng)
        for step in range(12):
            buffer.add(make_sample(step, rng))
        clouds, spectra = buffer.batch_arrays()
        assert clouds.shape == (8, CFG.n_input_points, POINT_DIM)
        assert spectra.shape == (8, CFG.spectrum_dim)

    def test_replay_retains_old_steps(self, rng):
        """Old simulation steps remain sampleable long after leaving the
        now-buffer — the property that counters catastrophic forgetting."""
        buffer = TrainingBuffer(now_size=10, ep_size=20, rng=rng)
        for step in range(100):
            buffer.add(make_sample(step, rng))
        old_in_ep = [s for s in [s.step for s in buffer._ep] if s < 80]
        assert len(old_in_ep) > 0

    def test_invalid_configuration(self, rng):
        with pytest.raises(ValueError):
            TrainingBuffer(now_size=0, rng=rng)
        with pytest.raises(ValueError):
            TrainingBuffer(n_ep=-1, rng=rng)

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_capacities_never_exceeded(self, now_size, ep_size, n_samples):
        rng = np.random.default_rng(now_size * 100 + ep_size * 10 + n_samples)
        buffer = TrainingBuffer(now_size=now_size, ep_size=ep_size, rng=rng)
        for step in range(n_samples):
            buffer.add(TrainingSample(point_cloud=np.zeros((4, 6)),
                                      spectrum=np.zeros(3), step=step))
        assert buffer.now_count <= now_size
        assert buffer.ep_count <= ep_size
        assert buffer.now_count + buffer.ep_count == min(n_samples,
                                                         now_size + ep_size)


class TestInTransitTrainer:
    def make_trainer(self, rng, n_rep=2):
        model = ArtificialScientistModel(CFG, rng=rng)
        groups = make_block_param_groups(model.vae_parameters(), model.inn_parameters(),
                                         base_lr=1e-3, m_vae=1.0)
        optimizer = Adam(groups, lr=1e-3)
        buffer = TrainingBuffer(rng=rng)
        return InTransitTrainer(model, optimizer, buffer, CombinedLoss(),
                                n_rep=n_rep)

    def test_train_on_stream_step_runs_n_rep_iterations(self, rng):
        trainer = self.make_trainer(rng, n_rep=3)
        samples = [make_sample(0, rng) for _ in range(2)]
        trainer.train_on_stream_step(samples, step=0)
        assert len(trainer.history) == 3
        assert trainer.samples_consumed == 2

    def test_loss_decreases_on_repeated_data(self, rng):
        """Training repeatedly on the same small stream must reduce the loss."""
        trainer = self.make_trainer(rng, n_rep=5)
        samples = [make_sample(0, rng) for _ in range(4)]
        first = trainer.train_on_stream_step(samples, step=0)
        last = first
        for step in range(1, 8):
            last = trainer.train_on_stream_step([], step=step) if False else \
                trainer.train_on_stream_step(samples, step=step)
        assert last < first

    def test_history_series(self, rng):
        trainer = self.make_trainer(rng, n_rep=2)
        trainer.train_on_stream_step([make_sample(0, rng)], step=0)
        series = trainer.history.series("chamfer")
        assert series.shape == (2,)
        assert trainer.history.series("total")[-1] > 0

    def test_evaluate_does_not_update_weights(self, rng):
        trainer = self.make_trainer(rng)
        samples = [make_sample(0, rng) for _ in range(2)]
        trainer.buffer.add_many(samples)
        before = trainer.model.state_dict()
        terms = trainer.evaluate(samples)
        after = trainer.model.state_dict()
        assert set(terms) == {"chamfer", "kl", "mse", "mmd_latent", "mmd_normal", "total"}
        for name in before:
            np.testing.assert_allclose(before[name], after[name])

    def test_evaluate_requires_samples(self, rng):
        trainer = self.make_trainer(rng)
        with pytest.raises(ValueError):
            trainer.evaluate([])

    def test_invalid_n_rep(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        with pytest.raises(ValueError):
            InTransitTrainer(model, Adam(model.parameters(), lr=1e-3),
                             TrainingBuffer(rng=rng), CombinedLoss(), n_rep=0)
