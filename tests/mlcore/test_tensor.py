"""Unit and property-based tests of the autograd tensor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mlcore.tensor import Tensor, _unbroadcast, concatenate, no_grad
from tests.conftest import numerical_gradient


def analytic_grad(build, x0: np.ndarray) -> np.ndarray:
    """Gradient of the scalar ``build(Tensor)`` at ``x0`` via autograd."""
    t = Tensor(x0, requires_grad=True)
    out = build(t)
    out.backward()
    assert t.grad is not None
    return t.grad


def square(t: Tensor) -> Tensor:
    return t * t


def check_grad(build, x0: np.ndarray, atol: float = 1e-5) -> None:
    got = analytic_grad(build, x0)
    want = numerical_gradient(lambda arr: build(Tensor(arr)).item(), x0)
    np.testing.assert_allclose(got, want, atol=atol, rtol=1e-4)


class TestBasics:
    def test_data_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype.kind == "f"

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_on_vector_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

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

    def test_bool_data_promoted_to_float(self):
        t = Tensor(np.array([True, False]))
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, [1.0, 0.0])

    def test_constructing_from_a_tensor_shares_its_array(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = Tensor(x)
        assert y.data is x.data
        assert not y.requires_grad

    def test_shape_ndim_and_numpy(self):
        data = np.zeros((2, 3, 4))
        t = Tensor(data)
        assert t.shape == (2, 3, 4) and t.ndim == 3
        assert t.numpy() is t.data

    def test_no_grad_nests_and_restores_after_an_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(KeyError):
            with no_grad():
                with no_grad():
                    pass
                assert not (x * 2).requires_grad
                raise KeyError("boom")
        assert (x * 2).requires_grad

    def test_a_leaf_made_under_no_grad_does_not_require_grad(self):
        with no_grad():
            x = Tensor([1.0], requires_grad=True)
        assert not x.requires_grad

    def test_backward_with_an_explicit_output_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * x).backward(np.array([1.0, 0.5, -1.0]))
        np.testing.assert_allclose(x.grad, [2.0, 2.0, -6.0])

    def test_a_constant_operand_records_no_graph_and_gets_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        const = c * 2.0
        assert not const.requires_grad and const._backward is None
        (x * c).sum().backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [3.0, 4.0])


class TestArithmeticGradients:
    def test_add(self, rng):
        check_grad(lambda t: (t + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_sub(self, rng):
        check_grad(lambda t: (Tensor(5.0) - t).sum(), rng.normal(size=(4,)))

    def test_mul(self, rng):
        x0 = rng.normal(size=(3, 2))
        other = rng.normal(size=(3, 2))
        check_grad(lambda t: (t * Tensor(other) * 2.0).sum(), x0)

    def test_div(self, rng):
        x0 = rng.normal(size=(5,)) + 3.0
        check_grad(lambda t: (1.0 / t).sum(), x0)

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
        check_grad(lambda t: square(Tensor(x) + t).sum(), rng.normal(size=(3,)))

    def test_broadcast_mul_scalar_like(self, rng):
        x = rng.normal(size=(2, 5))
        check_grad(lambda t: (Tensor(x) * t).sum(), rng.normal(size=(1, 5)))

    def test_reflected_add_and_mul(self, rng):
        check_grad(lambda t: (2.0 * (1.5 + t) * t).sum(), rng.normal(size=(4,)))

    def test_div_by_a_tensor_differentiates_the_divisor(self, rng):
        x = rng.normal(size=(3, 4))
        check_grad(lambda t: (Tensor(x) / t).sum(), rng.normal(size=(3, 4)) + 3.0)

    def test_broadcast_div_reduces_to_the_divisor_shape(self, rng):
        x = rng.normal(size=(4, 3))
        check_grad(lambda t: (Tensor(x) / t).sum(), rng.normal(size=(3,)) + 3.0)

    def test_matmul_vector_matrix(self, rng):
        b = rng.normal(size=(4, 3))
        check_grad(lambda t: square(t @ Tensor(b)).sum(), rng.normal(size=(4,)))
        a = rng.normal(size=(4,))
        check_grad(lambda t: square(Tensor(a) @ t).sum(), rng.normal(size=(4, 3)))

    def test_matmul_matrix_vector(self, rng):
        b = rng.normal(size=(4,))
        check_grad(lambda t: square(t @ Tensor(b)).sum(), rng.normal(size=(2, 4)))
        a = rng.normal(size=(2, 4))
        check_grad(lambda t: square(Tensor(a) @ t).sum(), rng.normal(size=(4,)))

    def test_matmul_broadcasts_a_shared_right_operand(self, rng):
        x = rng.normal(size=(5, 2, 4))
        check_grad(lambda t: square(Tensor(x) @ t).sum(), rng.normal(size=(4, 3)))


class TestElementwiseGradients:
    @pytest.mark.parametrize("name", ["exp", "tanh", "relu"])
    def test_unary(self, name, rng):
        x0 = rng.normal(size=(7,)) + 0.1  # avoid the relu kink at exactly 0
        check_grad(lambda t: getattr(t, name)().sum(), x0)

    def test_clip(self, rng):
        x0 = rng.normal(size=(8,)) * 3.0
        check_grad(lambda t: t.clip(-1.0, 1.0).sum(), x0)


class TestReductionsAndShapes:
    def test_sum_axis(self, rng):
        check_grad(lambda t: square(t.sum(axis=0)).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        check_grad(lambda t: (t.sum(axis=1, keepdims=True) * 2).sum(),
                   rng.normal(size=(3, 4)))

    def test_mean(self, rng):
        check_grad(lambda t: square(t.mean(axis=1)).sum(), rng.normal(size=(2, 6)))

    def test_max(self, rng):
        # distinct values so the argmax is unambiguous for the numeric check
        x0 = rng.permutation(np.arange(12, dtype=np.float64)).reshape(3, 4)
        check_grad(lambda t: t.max(axis=1).sum(), x0)

    def test_min(self, rng):
        x0 = rng.permutation(np.arange(12, dtype=np.float64)).reshape(3, 4)
        check_grad(lambda t: t.min(axis=0).sum(), x0)

    def test_reshape(self, rng):
        check_grad(lambda t: square(t.reshape(6, 2)).sum(), rng.normal(size=(3, 4)))

    def test_transpose(self, rng):
        w = rng.normal(size=(3, 4))
        check_grad(lambda t: (t.transpose(1, 0) * Tensor(w.T)).sum(),
                   rng.normal(size=(3, 4)))

    def test_getitem(self, rng):
        check_grad(lambda t: square(t[1:, :2]).sum(), rng.normal(size=(4, 3)))

    def test_squeeze_expand(self, rng):
        check_grad(lambda t: square(t.expand_dims(1).squeeze(1)).sum(),
                   rng.normal(size=(5,)))

    def test_concatenate(self, rng):
        b = rng.normal(size=(2, 3))
        check_grad(lambda t: square(concatenate([t, Tensor(b)], axis=0)).sum(),
                   rng.normal(size=(2, 3)))

    def test_sum_over_a_tuple_of_axes(self, rng):
        check_grad(lambda t: square(t.sum(axis=(0, 2))).sum(),
                   rng.normal(size=(2, 3, 4)))

    def test_sum_over_a_negative_axis(self, rng):
        check_grad(lambda t: square(t.sum(axis=-1)).sum(), rng.normal(size=(3, 4)))

    def test_mean_of_everything(self, rng):
        x0 = rng.normal(size=(3, 4))
        assert Tensor(x0).mean().item() == pytest.approx(float(x0.mean()))
        check_grad(lambda t: square(t.mean()).sum(), x0)

    def test_mean_over_a_tuple_of_axes(self, rng):
        x0 = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(Tensor(x0).mean(axis=(0, 2)).numpy(),
                                   x0.mean(axis=(0, 2)))
        check_grad(lambda t: square(t.mean(axis=(0, 2), keepdims=True)).sum(), x0)

    def test_global_max_splits_the_gradient_between_ties(self):
        x = Tensor([1.0, 3.0, 3.0, 2.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.5, 0.5, 0.0])

    def test_max_keepdims(self, rng):
        x0 = rng.permutation(np.arange(12, dtype=np.float64)).reshape(3, 4)
        assert Tensor(x0).max(axis=1, keepdims=True).shape == (3, 1)
        check_grad(lambda t: square(t.max(axis=1, keepdims=True)).sum(), x0)

    def test_reshape_takes_a_tuple(self, rng):
        x0 = rng.normal(size=(3, 4))
        assert Tensor(x0).reshape((2, 6)).shape == (2, 6)
        check_grad(lambda t: square(t.reshape((4, 3))).sum(), x0)

    def test_transpose_without_axes_reverses_them(self, rng):
        x0 = rng.normal(size=(2, 3, 4))
        np.testing.assert_array_equal(Tensor(x0).transpose().numpy(), x0.T)
        w = rng.normal(size=(4, 3, 2))
        check_grad(lambda t: (t.transpose() * Tensor(w)).sum(), x0)

    def test_swapaxes(self, rng):
        x0 = rng.normal(size=(2, 3, 4))
        np.testing.assert_array_equal(Tensor(x0).swapaxes(-1, -2).numpy(),
                                      np.swapaxes(x0, -1, -2))
        w = rng.normal(size=(2, 4, 3))
        check_grad(lambda t: (t.swapaxes(1, 2) * Tensor(w)).sum(), x0)

    def test_getitem_with_a_repeated_index_accumulates(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x[np.array([0, 2, 0])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_squeeze_every_singleton_axis(self, rng):
        x0 = rng.normal(size=(1, 3, 1))
        assert Tensor(x0).squeeze().shape == (3,)
        assert Tensor(np.ones((1, 1))).squeeze().shape == (1,)
        check_grad(lambda t: square(t.squeeze()).sum(), x0)

    def test_squeeze_rejects_a_non_singleton_axis(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3))).squeeze(0)

    def test_expand_dims_with_a_negative_axis(self):
        assert Tensor(np.ones((2, 3))).expand_dims(-1).shape == (2, 3, 1)
        assert Tensor(np.ones((2, 3))).expand_dims(0).shape == (1, 2, 3)

    def test_concatenate_along_the_last_axis(self, rng):
        b = rng.normal(size=(2, 1))
        out = concatenate([Tensor(np.ones((2, 3))), Tensor(b)], axis=1)
        assert out.shape == (2, 4)
        check_grad(lambda t: square(concatenate([Tensor(b), t], axis=1)).sum(),
                   rng.normal(size=(2, 3)))

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
