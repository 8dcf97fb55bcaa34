"""Tests of optimisers and LR scaling rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.mlcore import optim
from repro.mlcore.layers import Linear
from repro.mlcore.losses import mse_loss
from repro.mlcore.module import Parameter
from repro.mlcore.optim import Adam, ParamGroup, make_block_param_groups
from repro.mlcore.tensor import Tensor


class PerParameterAdam:
    """The per-parameter update the flat buffers replaced, kept as the
    oracle: one moment pair and step count per parameter, the same
    arithmetic in the same order, so the flat update must equal it exactly."""

    def __init__(self, betas=(0.8, 0.9), eps=1e-6):
        self.b1, self.b2 = betas
        self.eps = eps
        self.state = {}

    def step(self, arrays, grads, lr, weight_decay):
        b1, b2 = self.b1, self.b2
        for index, (data, grad) in enumerate(zip(arrays, grads)):
            if grad is None:
                continue
            state = self.state.setdefault(index, {"step": 0, "m": np.zeros_like(data),
                                                  "v": np.zeros_like(data)})
            state["step"] += 1
            t, m, v = state["step"], state["m"], state["v"]
            if weight_decay:
                work = weight_decay * data
                work += grad
            else:
                work = grad.copy()
            m *= b1
            m += (1.0 - b1) * work
            v *= b2
            work *= work
            work *= 1.0 - b2
            v += work
            np.sqrt(v, out=work)
            work *= 1.0 / math.sqrt(1.0 - b2 ** t)
            work += self.eps
            np.divide(m, work, out=work)
            work *= lr / (1.0 - b1 ** t)
            data -= work


def quadratic_problem(rng):
    """A tiny least-squares problem y = X w_true."""
    x = rng.normal(size=(64, 4))
    w_true = rng.normal(size=(4, 1))
    y = x @ w_true
    return x, y, w_true


class TestAdam:
    def test_paper_defaults(self):
        opt = Adam([Parameter(np.zeros(3))])
        assert opt.beta1 == pytest.approx(0.8)
        assert opt.beta2 == pytest.approx(0.9)
        assert opt.eps == pytest.approx(1e-6)
        assert opt.param_groups[0].weight_decay == pytest.approx(2e-5)

    def test_converges_on_regression(self, rng):
        x, y, w_true = quadratic_problem(rng)
        layer = Linear(4, 1, bias=False, rng=rng)
        opt = Adam(layer.parameters(), lr=0.05, weight_decay=0.0)
        for _ in range(400):
            opt.zero_grad()
            loss = mse_loss(layer(Tensor(x)), Tensor(y))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, w_true, atol=0.05)

    def test_in_place_update_matches_the_textbook_formula(self, rng):
        p = Parameter(rng.normal(size=(3, 2)))
        opt = Adam([p], lr=0.01, betas=(0.8, 0.9), eps=1e-6, weight_decay=0.02)
        want = p.data.copy()
        m, v = np.zeros_like(want), np.zeros_like(want)
        moments = []
        for t in range(1, 6):
            p.grad = rng.normal(size=(3, 2))
            kept = p.grad.copy()
            grad = kept + 0.02 * want
            m = 0.8 * m + 0.2 * grad
            v = 0.9 * v + 0.1 * grad * grad
            want = want - 0.01 * (m / (1 - 0.8 ** t)) / (np.sqrt(v / (1 - 0.9 ** t)) + 1e-6)
            opt.step()
            np.testing.assert_array_equal(p.grad, kept)      # never written to
            state = opt.param_groups[0].state               # flat buffers
            moments.append((state["m"], state["v"]))
            np.testing.assert_allclose(state["m"].reshape(3, 2), m, rtol=1e-13)
            np.testing.assert_allclose(state["v"].reshape(3, 2), v, rtol=1e-13)
            np.testing.assert_allclose(p.data, want, rtol=1e-12)
            assert state["step"] == [t]
        assert all(a is moments[0][0] and b is moments[0][1] for a, b in moments)

    def test_two_groups_and_a_rate_change_match_the_per_parameter_update(self, rng):
        groups = [
            ParamGroup([Parameter(rng.normal(size=s)) for s in [(3, 2), (4,), (2, 2, 2)]],
                       lr=0.01, weight_decay=0.02, name="vae"),
            ParamGroup([Parameter(rng.normal(size=s)) for s in [(5,), (1, 3)]],
                       lr=0.001, weight_decay=0.0, name="inn")]
        opt = Adam(groups, lr=0.001)
        oracles = [([p.data.copy() for p in group.params], PerParameterAdam())
                   for group in groups]
        for t in range(6):
            if t == 3:
                groups[0].lr = 0.05              # as the warm-up scheduler does
            for group, (arrays, oracle) in zip(groups, oracles):
                grads = [rng.normal(size=p.shape) for p in group.params]
                for p, grad in zip(group.params, grads):
                    p.grad = grad
                oracle.step(arrays, grads, group.lr, group.weight_decay)
            opt.step()
            for group, (arrays, _) in zip(groups, oracles):
                for p, want in zip(group.params, arrays):
                    np.testing.assert_array_equal(p.data, want)

    def test_a_parameter_without_a_gradient_keeps_its_moments_and_step(self, rng):
        params = [Parameter(rng.normal(size=s)) for s in [(3,), (2, 2), (4,), (2,)]]
        opt = Adam(params, lr=0.01, weight_decay=0.02)
        arrays, oracle = [p.data.copy() for p in params], PerParameterAdam()
        for t in range(8):
            grads = [rng.normal(size=p.shape) for p in params]
            if t in (2, 3, 5):
                grads[1] = None                  # a gap in the middle of the group
            if t in (0, 4):
                grads[0] = None
            if t == 6:
                grads = [None] * len(params)
            for p, grad in zip(params, grads):
                p.grad = grad
            oracle.step(arrays, grads, 0.01, 0.02)
            opt.step()
            for p, want in zip(params, arrays):
                np.testing.assert_array_equal(p.data, want)
        assert opt.param_groups[0].state["step"] == [5, 4, 7, 7]

    def test_a_step_with_every_gradient_is_one_flat_pass(self, rng, monkeypatch):
        layer = Linear(4, 3, rng=rng)
        opt = Adam(layer.parameters(), lr=0.01)
        calls = []
        original = Adam._update
        # (group, state, first, last, t): the whole group, once per step
        monkeypatch.setattr(Adam, "_update", lambda self, *args: calls.append(
            args[2:]) or original(self, *args))
        for _ in range(2):
            for p in layer.parameters():
                p.grad = rng.normal(size=p.shape)
            opt.step()
        assert calls == [(0, 2, 1), (0, 2, 2)]

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1e-3])
    def test_a_rate_that_cannot_train_is_refused(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Parameter(np.zeros(2))], lr=lr)
        with pytest.raises(ValueError, match="learning rate"):
            Adam([ParamGroup([Parameter(np.zeros(2))], lr=lr)])

    def test_zero_learning_rate_leaves_parameters_alone(self):
        p = Parameter(np.ones(3))
        opt = Adam([p], lr=0.0)
        p.grad = np.full(3, 2.0)
        opt.step()
        np.testing.assert_array_equal(p.data, np.ones(3))

    def test_skips_params_without_grad(self):
        p = Parameter(np.ones(3))
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, np.ones(3))

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.full(4, 10.0))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.zeros(4)
        for _ in range(50):
            opt.step()
        assert np.all(np.abs(p.data) < 10.0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.2, 0.9))
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], eps=0.0)


class TestParamGroupsAndScaling:
    def test_block_param_groups(self, rng):
        vae = Linear(4, 4, rng=rng)
        inn = Linear(4, 4, rng=rng)
        groups = make_block_param_groups(vae.parameters(), inn.parameters(),
                                         base_lr=1e-6, m_vae=10.0)
        assert groups[0].name == "vae" and groups[1].name == "inn"
        assert groups[0].lr == pytest.approx(10.0 * groups[1].lr)
        assert groups[1].lr == 1e-6

    def test_optimizer_with_groups(self, rng):
        vae = Linear(4, 4, rng=rng)
        inn = Linear(4, 4, rng=rng)
        groups = make_block_param_groups(vae.parameters(), inn.parameters(),
                                         base_lr=1e-6, m_vae=10.0)
        opt = Adam(groups, lr=1e-6)
        assert opt.param_groups == groups
        assert [group.name for group in opt.param_groups] == ["vae", "inn"]

    def test_paper_constant_exposed(self):
        assert optim.PAPER_BASE_LEARNING_RATE == pytest.approx(1e-6)
