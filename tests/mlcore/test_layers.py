"""Tests of neural-network layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mlcore.layers import (MLP, ConvTranspose3d, Linear, MaxPoolPoints,
                                 ModuleList, PointwiseConv, ReLU, Sequential)
from repro.mlcore.module import Module, Parameter
from repro.mlcore.tensor import Tensor


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow_to_parameters(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias is not None and layer.bias.grad is not None

    def test_batched_input(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 2)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)


class TestMLP:
    def test_stack_shapes(self, rng):
        mlp = MLP((6, 16, 8), rng=rng)
        out = mlp(Tensor(rng.normal(size=(4, 6))))
        assert out.shape == (4, 8)

    def test_too_few_dims(self):
        with pytest.raises(ValueError):
            MLP((4,))

    def test_relu_between_layers_only(self, rng):
        mlp = MLP((3, 5, 4, 2), rng=rng)
        assert [type(m) for m in mlp.net] == [Linear, ReLU, Linear, ReLU, Linear]
        out = mlp(Tensor(rng.normal(size=(64, 3)))).numpy()
        assert (out < 0.0).any()          # the last layer is not rectified


class TestPointwiseConv:
    def test_acts_per_point(self, rng):
        conv = PointwiseConv(6, 16, rng=rng)
        cloud = rng.normal(size=(2, 10, 6))
        out = conv(Tensor(cloud))
        assert out.shape == (2, 10, 16)
        # permuting the points permutes the output identically (1x1 conv)
        perm = rng.permutation(10)
        out_perm = conv(Tensor(cloud[:, perm])).numpy()
        np.testing.assert_allclose(out_perm, out.numpy()[:, perm])

    def test_channel_mismatch(self, rng):
        conv = PointwiseConv(6, 16, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(2, 10, 5))))


class TestMaxPoolPoints:
    def test_permutation_invariance(self, rng):
        pool = MaxPoolPoints()
        cloud = rng.normal(size=(3, 20, 8))
        base = pool(Tensor(cloud)).numpy()
        perm = rng.permutation(20)
        np.testing.assert_allclose(pool(Tensor(cloud[:, perm])).numpy(), base)

    def test_output_shape(self, rng):
        pool = MaxPoolPoints()
        assert pool(Tensor(rng.normal(size=(3, 20, 8)))).shape == (3, 8)


class TestConvTranspose3d:
    def test_upsamples_by_kernel(self, rng):
        deconv = ConvTranspose3d(16, 8, rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 4, 4, 16)))
        out = deconv(x)
        assert out.shape == (2, 8, 8, 8, 8)

    def test_chained_decoder_shape(self, rng):
        # the paper's decoder: (4,4,4,16) -> (8,8,8,8) -> (16,16,16,6)
        d1 = ConvTranspose3d(16, 8, rng=rng)
        d2 = ConvTranspose3d(8, 6, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 4, 4, 16)))
        out = d2(d1(x))
        assert out.shape == (1, 16, 16, 16, 6)
        assert out.shape[1] * out.shape[2] * out.shape[3] == 4096

    def test_gradients(self, rng):
        deconv = ConvTranspose3d(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(1, 2, 2, 2, 3)), requires_grad=True)
        deconv(x).sum().backward()
        assert x.grad is not None and x.grad.shape == x.shape
        assert deconv.weight.grad is not None

    def test_block_structure(self, rng):
        """Each input voxel influences exactly its own 2x2x2 output block."""
        deconv = ConvTranspose3d(1, 1, rng=rng)
        deconv.bias.data[...] = 0.0
        x = np.zeros((1, 2, 2, 2, 1))
        x[0, 1, 0, 1, 0] = 1.0
        out = deconv(Tensor(x)).numpy()[0, :, :, :, 0]
        nonzero = np.argwhere(out != 0.0)
        assert np.all(nonzero[:, 0] >= 2) and np.all(nonzero[:, 0] < 4)
        assert np.all(nonzero[:, 1] < 2)
        assert np.all(nonzero[:, 2] >= 2) and np.all(nonzero[:, 2] < 4)

    def test_rejects_wrong_rank(self, rng):
        deconv = ConvTranspose3d(3, 2, rng=rng)
        with pytest.raises(ValueError):
            deconv(Tensor(rng.normal(size=(2, 2, 2, 3))))


class TestContainersAndModule:
    def test_sequential_applies_in_order(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        out = model(Tensor(rng.normal(size=(3, 4))))
        assert out.shape == (3, 2)
        assert len(model) == 3

    def test_a_relu_must_follow_an_affine_layer(self, rng):
        with pytest.raises(ValueError, match="must follow"):
            Sequential(ReLU(), Linear(4, 2, rng=rng))
        with pytest.raises(ValueError, match="must follow"):
            Sequential(Linear(4, 2, rng=rng), MaxPoolPoints(), ReLU())

    def test_named_parameters_nested(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), Linear(8, 2, rng=rng))
        names = [n for n, _ in model.named_parameters()]
        assert "0.weight" in names and "1.bias" in names

    def test_state_dict_roundtrip(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        other = Sequential(Linear(4, 8, rng=np.random.default_rng(9)), ReLU(),
                           Linear(8, 2, rng=np.random.default_rng(10)))
        other.load_state_dict(model.state_dict())
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(other(x).numpy(), model(x).numpy())

    def test_state_dict_strict_mismatch(self, rng):
        model = Linear(4, 2, rng=rng)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((4, 2))})

    def test_state_dict_shape_mismatch(self, rng):
        model = Linear(4, 2, rng=rng)
        bad = model.state_dict()
        bad["weight"] = np.zeros((3, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(bad)

    def test_module_list(self, rng):
        blocks = ModuleList([Linear(3, 3, rng=rng) for _ in range(4)])
        assert len(blocks) == 4
        assert len(blocks.parameters()) == 8

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(3, 3, rng=rng), ReLU())
        model.eval()
        assert not any(module.training for module in (model, *model))
        model.train()
        assert all(module.training for module in (model, *model))

    def test_state_dict_holds_copies(self, rng):
        layer = Linear(3, 2, rng=rng)
        state = layer.state_dict()
        state["weight"] += 1.0
        assert not np.array_equal(layer.weight.data, state["weight"])

    def test_load_state_dict_writes_into_the_existing_arrays(self, rng):
        layer = Linear(3, 2, rng=rng)
        weight = layer.weight.data
        state = {name: np.full_like(value, 0.5) for name, value in
                 layer.state_dict().items()}
        layer.load_state_dict(state)
        assert layer.weight.data is weight
        np.testing.assert_array_equal(weight, 0.5)
        state["weight"][...] = 2.0
        np.testing.assert_array_equal(layer.weight.data, 0.5)

    def test_an_unexpected_key_is_refused(self, rng):
        layer = Linear(3, 2, rng=rng)
        state = layer.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected=\\['extra'\\]"):
            layer.load_state_dict(state)

    def test_zero_grad_clears_every_parameter(self, rng):
        model = Sequential(Linear(3, 4, rng=rng), ReLU(), Linear(4, 1, rng=rng))
        model(Tensor(rng.normal(size=(5, 3)))).sum().backward()
        assert all(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_add_module_registers_a_named_child(self, rng):
        parent = Module()
        child = Linear(2, 2, rng=rng)
        parent.add_module("head", child)
        assert parent.head is child
        assert [n for n, _ in parent.named_parameters()] == ["head.weight", "head.bias"]

    def test_num_parameters(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_custom_module_registration(self, rng):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones((2, 2)))
                self.inner = Linear(2, 2, rng=rng)

            def forward(self, x):
                return self.inner(x @ self.w)

        m = Custom()
        names = {n for n, _ in m.named_parameters()}
        assert names == {"w", "inner.weight", "inner.bias"}
