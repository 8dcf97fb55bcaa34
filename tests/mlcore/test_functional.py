"""Tests of the pairwise-distance and loss-tail nodes on plain NumPy
references."""

from __future__ import annotations

import numpy as np

from repro.mlcore import functional as F
from repro.mlcore.tensor import Tensor


class TestPairwiseDistances:
    def test_matches_direct_computation(self, rng):
        a = rng.normal(size=(1, 6, 3))
        b = rng.normal(size=(1, 4, 3))
        d2 = F.pairwise_squared_distances(Tensor(a), Tensor(b)).numpy()
        direct = ((a[:, :, None, :] - b[:, None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(d2, direct, atol=1e-10)

    def test_non_negative(self, rng):
        a = rng.normal(size=(2, 5, 4))
        d2 = F.pairwise_squared_distances(Tensor(a), Tensor(a)).numpy()
        assert np.all(d2 >= 0)
        np.testing.assert_allclose(np.diagonal(d2, axis1=1, axis2=2), 0.0, atol=1e-9)

    def test_constant_inputs_record_no_graph(self, rng):
        d2 = F.pairwise_squared_distances(Tensor(rng.normal(size=(3, 2))),
                                          Tensor(rng.normal(size=(4, 2))))
        assert d2.shape == (3, 4)
        assert not d2.requires_grad and d2._backward is None


class TestLossTailHelpers:
    def test_reparameterize_without_noise_is_the_mean(self, rng):
        mu = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        log_var = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        z = F.reparameterize(mu, log_var, np.zeros((3, 2)))
        np.testing.assert_array_equal(z.numpy(), mu.numpy())
        z.sum().backward()
        np.testing.assert_array_equal(mu.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(log_var.grad, np.zeros((3, 2)))

    def test_reparameterize_scales_the_noise_by_the_standard_deviation(self):
        mu = Tensor([0.0, 1.0])
        log_var = Tensor([np.log(4.0), 0.0])
        z = F.reparameterize(mu, log_var, np.array([1.0, -1.0]))
        np.testing.assert_allclose(z.numpy(), [2.0, 0.0])

    def test_weighted_sum_of_three_terms(self, rng):
        terms = [Tensor(rng.normal(size=(2,)), requires_grad=True) for _ in range(3)]
        total = F.weighted_sum(terms, (1.0, 0.5, 2.0))
        want = terms[0].data + 0.5 * terms[1].data + 2.0 * terms[2].data
        np.testing.assert_allclose(total.numpy(), want)
        total.sum().backward()
        for term, weight in zip(terms, (1.0, 0.5, 2.0)):
            np.testing.assert_array_equal(term.grad, np.full(2, weight))
