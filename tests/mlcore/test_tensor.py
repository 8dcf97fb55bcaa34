"""Unit and property-based tests of the autograd tensor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mlcore.tensor import (Tensor, _unbroadcast, concatenate, no_grad,
                                 split, stack, tensor, where, zeros)
from tests.conftest import numerical_gradient


def analytic_grad(build, x0: np.ndarray) -> np.ndarray:
    """Gradient of the scalar ``build(Tensor)`` at ``x0`` via autograd."""
    t = Tensor(x0, requires_grad=True)
    out = build(t)
    out.backward()
    assert t.grad is not None
    return t.grad


def check_grad(build, x0: np.ndarray, atol: float = 1e-5) -> None:
    got = analytic_grad(build, x0)
    want = numerical_gradient(lambda arr: build(Tensor(arr)).item(), x0)
    np.testing.assert_allclose(got, want, atol=atol, rtol=1e-4)


class TestBasics:
    def test_data_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_item_on_scalar(self):
        assert tensor(3.5).item() == pytest.approx(3.5)

    def test_item_on_vector_raises(self):
        with pytest.raises(ValueError):
            tensor([1.0, 2.0]).item()

    def test_detach_breaks_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_disables_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = x * 3
        assert not y.requires_grad

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x.sum()).backward()
        (x.sum()).backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_leaf_gradient_is_owned_then_accumulated_in_place(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x.sum().backward()                  # arrives as a read-only broadcast view
        first = x.grad
        assert first.flags.writeable and first.dtype == np.float64
        (x * x).sum().backward()
        assert x.grad is first
        np.testing.assert_allclose(x.grad, [3.0, 5.0])

    def test_leaf_gradient_does_not_alias_a_sibling(self):
        # add's backward hands the same array to both parents
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_unbroadcast_checks_the_shape_before_converting(self):
        grad = np.ones((2, 3), dtype=np.float32)
        assert _unbroadcast(grad, (2, 3)) is grad
        reduced = _unbroadcast(np.ones((4, 2, 3)), (1, 3))
        np.testing.assert_allclose(reduced, np.full((1, 3), 8.0))

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        x.sum().backward()
        x.zero_grad()
        assert x.grad is None


class TestArithmeticGradients:
    def test_add(self, rng):
        check_grad(lambda t: (t + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_sub(self, rng):
        check_grad(lambda t: (5.0 - t).sum(), rng.normal(size=(4,)))

    def test_mul(self, rng):
        x0 = rng.normal(size=(3, 2))
        other = rng.normal(size=(3, 2))
        check_grad(lambda t: (t * Tensor(other) * 2.0).sum(), x0)

    def test_div(self, rng):
        x0 = rng.normal(size=(5,)) + 3.0
        check_grad(lambda t: (1.0 / t).sum(), x0)

    def test_pow(self, rng):
        x0 = np.abs(rng.normal(size=(4,))) + 0.5
        check_grad(lambda t: (t ** 3).sum(), x0)

    def test_neg(self, rng):
        check_grad(lambda t: (-t).sum(), rng.normal(size=(3,)))

    def test_matmul_2d(self, rng):
        b = rng.normal(size=(4, 3))
        check_grad(lambda t: (t @ Tensor(b)).sum(), rng.normal(size=(2, 4)))

    def test_matmul_batched(self, rng):
        b = rng.normal(size=(5, 4, 3))
        check_grad(lambda t: (t @ Tensor(b)).sum(), rng.normal(size=(5, 2, 4)))

    def test_matmul_right_grad(self, rng):
        a = rng.normal(size=(2, 4))
        check_grad(lambda t: (Tensor(a) @ t).sum(), rng.normal(size=(4, 3)))

    def test_matmul_vector_vector(self, rng):
        b = rng.normal(size=(4,))
        check_grad(lambda t: t @ Tensor(b), rng.normal(size=(4,)))

    def test_broadcast_add_bias(self, rng):
        x = rng.normal(size=(6, 3))
        check_grad(lambda t: ((Tensor(x) + t) ** 2).sum(), rng.normal(size=(3,)))

    def test_broadcast_mul_scalar_like(self, rng):
        x = rng.normal(size=(2, 5))
        check_grad(lambda t: (Tensor(x) * t).sum(), rng.normal(size=(1, 5)))


class TestElementwiseGradients:
    @pytest.mark.parametrize("name", ["exp", "tanh", "sigmoid", "relu",
                                      "softplus", "abs"])
    def test_unary(self, name, rng):
        x0 = rng.normal(size=(7,)) + 0.1  # avoid the relu/abs kink at exactly 0
        check_grad(lambda t: getattr(t, name)().sum(), x0)

    def test_log(self, rng):
        x0 = np.abs(rng.normal(size=(5,))) + 0.5
        check_grad(lambda t: t.log().sum(), x0)

    def test_sqrt(self, rng):
        x0 = np.abs(rng.normal(size=(5,))) + 0.5
        check_grad(lambda t: t.sqrt().sum(), x0)

    def test_leaky_relu(self, rng):
        x0 = rng.normal(size=(9,)) + 0.05
        check_grad(lambda t: t.leaky_relu(0.1).sum(), x0)

    def test_clip(self, rng):
        x0 = rng.normal(size=(8,)) * 3.0
        check_grad(lambda t: t.clip(-1.0, 1.0).sum(), x0)


class TestReductionsAndShapes:
    def test_sum_axis(self, rng):
        check_grad(lambda t: (t.sum(axis=0) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        check_grad(lambda t: (t.sum(axis=1, keepdims=True) * 2).sum(),
                   rng.normal(size=(3, 4)))

    def test_mean(self, rng):
        check_grad(lambda t: (t.mean(axis=1) ** 2).sum(), rng.normal(size=(2, 6)))

    def test_max(self, rng):
        # distinct values so the argmax is unambiguous for the numeric check
        x0 = rng.permutation(np.arange(12, dtype=np.float64)).reshape(3, 4)
        check_grad(lambda t: t.max(axis=1).sum(), x0)

    def test_min(self, rng):
        x0 = rng.permutation(np.arange(12, dtype=np.float64)).reshape(3, 4)
        check_grad(lambda t: t.min(axis=0).sum(), x0)

    def test_reshape(self, rng):
        check_grad(lambda t: (t.reshape(6, 2) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_transpose(self, rng):
        w = rng.normal(size=(3, 4))
        check_grad(lambda t: (t.transpose(1, 0) * Tensor(w.T)).sum(),
                   rng.normal(size=(3, 4)))

    def test_getitem(self, rng):
        check_grad(lambda t: (t[1:, :2] ** 2).sum(), rng.normal(size=(4, 3)))

    def test_squeeze_expand(self, rng):
        check_grad(lambda t: (t.expand_dims(1).squeeze(1) ** 2).sum(),
                   rng.normal(size=(5,)))

    def test_concatenate(self, rng):
        b = rng.normal(size=(2, 3))
        check_grad(lambda t: (concatenate([t, Tensor(b)], axis=0) ** 2).sum(),
                   rng.normal(size=(2, 3)))

    def test_stack(self, rng):
        b = rng.normal(size=(4,))
        check_grad(lambda t: (stack([t, Tensor(b)], axis=0) ** 2).sum(),
                   rng.normal(size=(4,)))

    def test_split_roundtrip(self, rng):
        x0 = rng.normal(size=(2, 6))
        check_grad(lambda t: sum((p ** 2).sum() for p in split(t, 3, axis=1)), x0)

    def test_where(self, rng):
        cond = rng.random((5,)) > 0.5
        b = rng.normal(size=(5,))
        check_grad(lambda t: (where(cond, t, Tensor(b)) ** 2).sum(),
                   rng.normal(size=(5,)))

    def test_diamond_graph(self, rng):
        # y = x*x + x*x re-uses the same intermediate twice
        def build(t):
            s = t * t
            return (s + s).sum()
        check_grad(build, rng.normal(size=(4,)))


class TestHypothesisProperties:
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=5),
                      elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_sum_matches_numpy(self, data):
        assert Tensor(data).sum().item() == pytest.approx(float(data.sum()), abs=1e-9, rel=1e-9)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                      elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_add_grad_is_ones(self, data):
        t = Tensor(data, requires_grad=True)
        (t + 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(data))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                      elements=st.floats(-5, 5)),
           st.floats(0.1, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_scalar_mul_grad(self, data, scale):
        t = Tensor(data, requires_grad=True)
        (t * scale).sum().backward()
        np.testing.assert_allclose(t.grad, np.full_like(data, scale))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6)),
                      elements=st.floats(-3, 3)))
    @settings(max_examples=50, deadline=None)
    def test_tanh_bounded(self, data):
        out = Tensor(data).tanh().numpy()
        assert np.all(np.abs(out) <= 1.0)


class TestFactories:
    def test_zeros(self):
        z = zeros((2, 3))
        assert z.shape == (2, 3)
        assert np.all(z.numpy() == 0.0)

    def test_randn_seeded(self):
        a = np.random.default_rng(0)
        b = np.random.default_rng(0)
        from repro.mlcore.tensor import randn
        np.testing.assert_allclose(randn((3,), rng=a).numpy(), randn((3,), rng=b).numpy())
