"""Tests of the loss functions of the paper's objective (Eq. (1))."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mlcore import losses
from repro.mlcore.tensor import Tensor
from tests.conftest import numerical_gradient


class TestMSE:
    def test_zero_for_identical(self, rng):
        x = rng.normal(size=(4, 5))
        assert losses.mse_loss(Tensor(x), Tensor(x.copy())).item() == pytest.approx(0.0)

    def test_matches_numpy(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        want = float(np.mean((a - b) ** 2))
        assert losses.mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(want)

    def test_gradient(self, rng):
        a0 = rng.normal(size=(6,))
        b = rng.normal(size=(6,))
        t = Tensor(a0, requires_grad=True)
        losses.mse_loss(t, Tensor(b)).backward()
        want = numerical_gradient(
            lambda arr: losses.mse_loss(Tensor(arr), Tensor(b)).item(), a0)
        np.testing.assert_allclose(t.grad, want, atol=1e-6)


class TestChamfer:
    def test_zero_for_identical_clouds(self, rng):
        cloud = rng.normal(size=(2, 12, 3))
        assert losses.chamfer_distance(Tensor(cloud), Tensor(cloud.copy())).item() \
            == pytest.approx(0.0, abs=1e-10)

    def test_symmetric(self, rng):
        a = rng.normal(size=(1, 10, 3))
        b = rng.normal(size=(1, 14, 3))
        ab = losses.chamfer_distance(Tensor(a), Tensor(b)).item()
        ba = losses.chamfer_distance(Tensor(b), Tensor(a)).item()
        assert ab == pytest.approx(ba)

    def test_translation_increases_distance(self, rng):
        a = rng.normal(size=(1, 20, 3))
        near = losses.chamfer_distance(Tensor(a), Tensor(a + 0.01)).item()
        far = losses.chamfer_distance(Tensor(a), Tensor(a + 1.0)).item()
        assert far > near > 0.0

    def test_permutation_invariance(self, rng):
        a = rng.normal(size=(1, 16, 3))
        b = rng.normal(size=(1, 16, 3))
        perm = rng.permutation(16)
        d1 = losses.chamfer_distance(Tensor(a), Tensor(b)).item()
        d2 = losses.chamfer_distance(Tensor(a), Tensor(b[:, perm])).item()
        assert d1 == pytest.approx(d2)

    def test_gradient_pulls_points_together(self, rng):
        a0 = rng.normal(size=(1, 8, 3))
        b = a0 + 0.5
        t = Tensor(a0, requires_grad=True)
        losses.chamfer_distance(t, Tensor(b)).backward()
        # moving along -grad must decrease the loss
        step = a0 - 0.05 * t.grad
        before = losses.chamfer_distance(Tensor(a0), Tensor(b)).item()
        after = losses.chamfer_distance(Tensor(step), Tensor(b)).item()
        assert after < before

    def test_reductions(self, rng):
        """The batch is reduced by its mean: the per-cloud distances
        averaged."""
        a = rng.normal(size=(3, 5, 3))
        b = rng.normal(size=(3, 5, 3))
        per = [losses.chamfer_distance(Tensor(a[i:i + 1]), Tensor(b[i:i + 1])).item()
               for i in range(3)]
        assert losses.chamfer_distance(Tensor(a), Tensor(b)).item() \
            == pytest.approx(np.mean(per))

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            losses.chamfer_distance(Tensor(rng.normal(size=(5, 3))),
                                    Tensor(rng.normal(size=(5, 3))))


class TestKL:
    def test_zero_for_standard_normal(self):
        mu = np.zeros((4, 8))
        log_var = np.zeros((4, 8))
        assert losses.kl_divergence_normal(Tensor(mu), Tensor(log_var)).item() \
            == pytest.approx(0.0)

    def test_positive_otherwise(self, rng):
        mu = rng.normal(size=(4, 8))
        log_var = rng.normal(size=(4, 8))
        assert losses.kl_divergence_normal(Tensor(mu), Tensor(log_var)).item() > 0.0

    def test_known_value(self):
        # KL(N(1, 1) || N(0,1)) = 0.5 per dimension
        mu = np.ones((1, 3))
        log_var = np.zeros((1, 3))
        assert losses.kl_divergence_normal(Tensor(mu), Tensor(log_var)).item() \
            == pytest.approx(1.5)

    def test_gradient(self, rng):
        mu0 = rng.normal(size=(2, 4))
        lv = rng.normal(size=(2, 4)) * 0.1
        t = Tensor(mu0, requires_grad=True)
        losses.kl_divergence_normal(t, Tensor(lv)).backward()
        want = numerical_gradient(
            lambda arr: losses.kl_divergence_normal(Tensor(arr), Tensor(lv)).item(), mu0)
        np.testing.assert_allclose(t.grad, want, atol=1e-6)


class TestMMD:
    def test_near_zero_for_same_distribution(self, rng):
        x = rng.normal(size=(256, 4))
        y = rng.normal(size=(256, 4))
        value = losses.mmd_imq(Tensor(x), Tensor(y)).item()
        assert abs(value) < 0.05

    def test_large_for_shifted_distribution(self, rng):
        x = rng.normal(size=(128, 4))
        y = rng.normal(size=(128, 4)) + 3.0
        far = losses.mmd_imq(Tensor(x), Tensor(y)).item()
        near = losses.mmd_imq(Tensor(x), Tensor(rng.normal(size=(128, 4)))).item()
        assert far > 5 * abs(near)
        assert far > 0.1

    def test_symmetry(self, rng):
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=(32, 3)) + 1.0
        assert losses.mmd_imq(Tensor(x), Tensor(y)).item() == pytest.approx(
            losses.mmd_imq(Tensor(y), Tensor(x)).item())

    def test_gradient_moves_samples_towards_target(self, rng):
        x0 = rng.normal(size=(32, 2)) + 2.0
        target = rng.normal(size=(64, 2))
        t = Tensor(x0, requires_grad=True)
        losses.mmd_imq(t, Tensor(target)).backward()
        moved = x0 - 0.5 * t.grad
        before = losses.mmd_imq(Tensor(x0), Tensor(target)).item()
        after = losses.mmd_imq(Tensor(moved), Tensor(target)).item()
        assert after < before

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            losses.mmd_imq(Tensor(rng.normal(size=(4, 3, 2))),
                           Tensor(rng.normal(size=(4, 3))))


class TestHypothesisLossProperties:
    @given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_chamfer_nonnegative(self, n, m, batch):
        rng = np.random.default_rng(n * 100 + m * 10 + batch)
        a = rng.normal(size=(batch, n, 3))
        b = rng.normal(size=(batch, m, 3))
        assert losses.chamfer_distance(Tensor(a), Tensor(b)).item() >= 0.0

    @given(st.integers(4, 64))
    @settings(max_examples=25, deadline=None)
    def test_mmd_nonnegative_up_to_noise(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=(n, 3))
        assert losses.mmd_imq(Tensor(x), Tensor(y)).item() > -0.1
