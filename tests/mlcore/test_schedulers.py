"""Tests of the learning-rate warm-up and gradient clipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mlcore.layers import Linear
from repro.mlcore.losses import mse_loss
from repro.mlcore.optim import Adam, make_block_param_groups
from repro.mlcore.schedulers import (WARMUP_START_FACTOR, WarmupScheduler,
                                     clip_gradient_norm)
from repro.mlcore.module import Parameter
from repro.mlcore.tensor import Tensor


def make_optimizer(rng, lr=0.1):
    layer = Linear(4, 2, rng=rng)
    return layer, Adam(layer.parameters(), lr=lr, weight_decay=0.0)


class TestWarmup:
    def test_ramps_to_base_lr(self, rng):
        layer, opt = make_optimizer(rng, lr=0.1)
        scheduler = WarmupScheduler(opt, warmup_steps=10)
        lrs = []
        for _ in range(12):
            scheduler.step()
            lrs.append(opt.param_groups[0].lr)
        assert lrs[0] < lrs[5] < lrs[9]
        assert lrs[0] == pytest.approx(0.1 * (0.1 + 0.9 * 0.1))
        assert lrs[-1] == pytest.approx(0.1)

    def test_invalid_args(self, rng):
        _, opt = make_optimizer(rng)
        with pytest.raises(ValueError):
            WarmupScheduler(opt, warmup_steps=0)

    def test_factor_is_linear_then_constant(self, rng):
        _, opt = make_optimizer(rng)
        scheduler = WarmupScheduler(opt, warmup_steps=10)
        assert scheduler.factor(0) == pytest.approx(WARMUP_START_FACTOR)
        assert scheduler.factor(5) == pytest.approx(
            WARMUP_START_FACTOR + (1.0 - WARMUP_START_FACTOR) * 0.5)
        assert scheduler.factor(10) == scheduler.factor(1000) == 1.0

    def test_a_one_step_warmup_reaches_the_base_rate_at_once(self, rng):
        _, opt = make_optimizer(rng, lr=0.3)
        scheduler = WarmupScheduler(opt, warmup_steps=1)
        scheduler.step()
        assert opt.param_groups[0].lr == 0.3

    def test_every_group_ramps_from_its_own_base_rate(self, rng):
        vae, inn = Linear(4, 2, rng=rng), Linear(2, 2, rng=rng)
        opt = Adam(make_block_param_groups(vae.parameters(), inn.parameters(),
                                           base_lr=0.01, m_vae=10.0))
        scheduler = WarmupScheduler(opt, warmup_steps=4)
        for step in range(1, 6):
            scheduler.step()
            factor = scheduler.factor(step)
            assert opt.param_groups[0].lr == pytest.approx(0.1 * factor)
            assert opt.param_groups[1].lr == pytest.approx(0.01 * factor)


class TestSchedulerWithTraining:
    def test_warmup_then_train_converges(self, rng):
        x = rng.normal(size=(64, 4))
        w = rng.normal(size=(4, 1))
        y = x @ w
        layer = Linear(4, 1, bias=False, rng=rng)
        opt = Adam(layer.parameters(), lr=0.05, weight_decay=0.0)
        scheduler = WarmupScheduler(opt, warmup_steps=20)
        for _ in range(400):
            opt.zero_grad()
            loss = mse_loss(layer(Tensor(x)), Tensor(y))
            loss.backward()
            opt.step()
            scheduler.step()
        assert loss.item() < 1e-3


class TestGradientClipping:
    def test_clips_large_gradients(self):
        p = Parameter(np.zeros(10))
        p.grad = np.full(10, 10.0)
        norm_before = clip_gradient_norm([p], max_norm=1.0)
        assert norm_before == pytest.approx(np.sqrt(1000.0))
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-9)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.01)
        clip_gradient_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, 0.01)

    def test_clips_the_global_norm_across_parameters(self):
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0, 0.0]), np.array([4.0])
        assert clip_gradient_norm([a, b], max_norm=1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(a.grad, [0.6, 0.0])
        np.testing.assert_allclose(b.grad, [0.8])

    def test_skips_parameters_without_a_gradient(self):
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        a.grad = np.array([6.0, 8.0])
        assert clip_gradient_norm([a, b], max_norm=5.0) == pytest.approx(10.0)
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        assert b.grad is None

    def test_handles_missing_gradients(self):
        p = Parameter(np.zeros(4))
        assert clip_gradient_norm([p], max_norm=1.0) == 0.0
        assert p.grad is None

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_gradient_norm([], max_norm=0.0)
