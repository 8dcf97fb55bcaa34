"""Fused autograd nodes against their tape oracles.

The trainer's hot composites are single autograd nodes with hand-written
backward passes (``docs/performance.md``, "Training hot path").  The
compositional formulas they replaced live on here, written with primitive
``Tensor`` operations only: every fused node must reproduce its oracle's
value and every input/parameter gradient, and must pass a central-difference
check of its own.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.continual.buffer import TrainingBuffer, TrainingSample
from repro.continual.trainer import InTransitTrainer
from repro.mlcore import functional as F
from repro.mlcore import losses
from repro.mlcore.layers import ConvTranspose3d, Linear, PointwiseConv, conv
from repro.mlcore.optim import Adam
from repro.mlcore.tensor import Tensor, concatenate
from repro.models import losses as model_losses
from repro.models.config import POINT_DIM
from repro.models.inn import GlowCouplingBlock
from repro.models.losses import CombinedLoss, LossWeights
from repro.models.model import ArtificialScientistModel
from repro.workflow.presets import get_preset
from repro.workflow.train_hotpath import MAX_TAPE_NODES, count_nodes
from tests.conftest import numerical_gradient

SCALES = (0.05, 0.2, 0.9)


# --------------------------------------------------------------------------- #
# oracles: the formulas the fused nodes replaced, on the primitive tape
# --------------------------------------------------------------------------- #
def oracle_pairwise(a: Tensor, b: Tensor) -> Tensor:
    a_sq = (a * a).sum(axis=-1, keepdims=True)
    b_sq = (b * b).sum(axis=-1, keepdims=True)
    cross = a @ b.swapaxes(-1, -2)
    d2 = a_sq - cross * 2.0 + b_sq.swapaxes(-1, -2)
    return d2.clip(0.0, np.inf)


def oracle_affine(x: Tensor, weight: Tensor, bias=None, relu: bool = False) -> Tensor:
    out = x @ weight
    if bias is not None:
        repeats = out.shape[-1] // bias.shape[0]
        out = (out.reshape(out.shape[:-1] + (repeats, bias.shape[0])) + bias
               ).reshape(out.shape)
    return out.relu() if relu else out


def oracle_take_columns(x: Tensor, columns) -> Tensor:
    return x[:, columns]


def oracle_interleave(blocks: Tensor, k: int, c_out: int) -> Tensor:
    b, d, h, w, _ = blocks.shape
    out = blocks.reshape(b, d, h, w, k, k, k, c_out)
    out = out.transpose(0, 1, 4, 2, 5, 3, 6, 7)
    return out.reshape(b, d * k, h * k, w * k, c_out)


def oracle_min_mean(d2: Tensor) -> Tensor:
    per_batch = d2.min(axis=2).mean(axis=1) + d2.min(axis=1).mean(axis=1)
    return per_batch.mean()


def oracle_chamfer(a: Tensor, b: Tensor) -> Tensor:
    return oracle_min_mean(oracle_pairwise(a, b))


def _oracle_imq_kernel(d2: Tensor, scales) -> Tensor:
    total = None
    for scale in scales:
        term = 1.0 / (d2 * (1.0 / scale) + 1.0)
        total = term if total is None else total + term
    return total


def oracle_imq_mmd(d2: Tensor, n_x: int, scales) -> Tensor:
    """The MMD estimator from the three blocks of the stacked distances."""
    k_xx = _oracle_imq_kernel(d2[:n_x, :n_x], scales).mean()
    k_yy = _oracle_imq_kernel(d2[n_x:, n_x:], scales).mean()
    k_xy = _oracle_imq_kernel(d2[:n_x, n_x:], scales).mean()
    return k_xx + k_yy - k_xy * 2.0


def oracle_mmd_imq(x: Tensor, y: Tensor, scales=SCALES) -> Tensor:
    """``mmd_imq`` as it was: three separate distance matrices."""
    def distances(p, q):
        return oracle_pairwise(p.expand_dims(0), q.expand_dims(0)).squeeze(0)
    k_xx = _oracle_imq_kernel(distances(x, x), scales).mean()
    k_yy = _oracle_imq_kernel(distances(y, y), scales).mean()
    k_xy = _oracle_imq_kernel(distances(x, y), scales).mean()
    return k_xx + k_yy - k_xy * 2.0


def oracle_kl(mu: Tensor, log_var: Tensor) -> Tensor:
    per_sample = (log_var.exp() + mu * mu - 1.0 - log_var).sum(axis=-1) * 0.5
    return per_sample.mean()


def oracle_mse(prediction, target) -> Tensor:
    diff = Tensor._coerce(prediction) - Tensor._coerce(target)
    return (diff * diff).mean()


def oracle_reparameterize(mu: Tensor, log_var: Tensor, eps: np.ndarray) -> Tensor:
    return mu + (log_var * 0.5).exp() * Tensor(eps)


def oracle_weighted_sum(terms, weights) -> Tensor:
    total = None
    for term, weight in zip(terms, weights):
        total = term * weight if total is None else total + term * weight
    return total


def oracle_coupling(block: GlowCouplingBlock, x: Tensor, inverse: bool) -> Tensor:
    """The Glow block op by op (stands in for ``GlowCouplingBlock._node``)."""
    half = block.half

    def scale_shift(index: int, value: Tensor):
        layers = block._linears[index]
        for i, layer in enumerate(layers):
            value = oracle_affine(value, layer.weight, layer.bias,
                                  relu=i < len(layers) - 1)
        return value[:, :half].tanh() * block.clamp, value[:, half:]

    lower, upper = x[:, :half], x[:, half:]
    if inverse:
        scale2, shift2 = scale_shift(1, lower)
        x2 = (upper - shift2) * (-scale2).exp()
        scale1, shift1 = scale_shift(0, x2)
        x1 = (lower - shift1) * (-scale1).exp()
        return concatenate([x1, x2], axis=1)
    scale1, shift1 = scale_shift(0, upper)
    y1 = lower * scale1.exp() + shift1
    scale2, shift2 = scale_shift(1, y1)
    y2 = upper * scale2.exp() + shift2
    return concatenate([y1, y2], axis=1)


def install_loss_tail_oracles(patch) -> None:
    """Swap the KL, MSE, reparameterise and weighted-total nodes for their
    oracles (``CombinedLoss`` resolves KL and MSE in its own module)."""
    patch.setattr(model_losses, "kl_divergence_normal", oracle_kl)
    patch.setattr(model_losses, "mse_loss", oracle_mse)
    patch.setattr(F, "reparameterize", oracle_reparameterize)
    patch.setattr(F, "weighted_sum", oracle_weighted_sum)


def install_oracles(patch) -> None:
    """Swap every fused node for its oracle: the library on the plain tape."""
    patch.setattr(F, "pairwise_squared_distances", oracle_pairwise)
    patch.setattr(F, "affine", oracle_affine)
    patch.setattr(F, "take_columns", oracle_take_columns)
    patch.setattr(conv, "_interleave", oracle_interleave)
    patch.setattr(losses, "_two_sided_min_mean", oracle_min_mean)
    patch.setattr(losses, "_imq_mmd", oracle_imq_mmd)
    patch.setattr(GlowCouplingBlock, "_node", oracle_coupling)
    install_loss_tail_oracles(patch)


# --------------------------------------------------------------------------- #
# comparison helpers
# --------------------------------------------------------------------------- #
def value_and_grads(fn, arrays, upstream_seed: int = 7):
    """``fn(*tensors)`` and the gradient of ``sum(out * R)`` (``R`` a fixed
    random upstream gradient) with respect to every input."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    upstream = np.random.default_rng(upstream_seed).normal(size=out.shape)
    (out * Tensor(upstream)).sum().backward()
    return out.data, [t.grad for t in tensors]


def assert_close(got, want, rtol: float = 1e-10) -> None:
    want = np.asarray(want)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * max(scale, 1e-300))


def assert_matches_oracle(fused, oracle, arrays) -> None:
    value, grads = value_and_grads(fused, arrays)
    want_value, want_grads = value_and_grads(oracle, arrays)
    assert_close(value, want_value)
    for got, want in zip(grads, want_grads):
        assert got is not None and want is not None
        assert_close(got, want)


def assert_central_difference(fn, arrays, atol: float = 1e-6) -> None:
    _, grads = value_and_grads(fn, arrays)
    for index, grad in enumerate(grads):
        def scalar(changed, index=index):
            inputs = [Tensor(changed if i == index else a)
                      for i, a in enumerate(arrays)]
            out = fn(*inputs)
            upstream = np.random.default_rng(7).normal(size=out.shape)
            return float((out.data * upstream).sum())
        want = numerical_gradient(scalar, arrays[index].copy())
        np.testing.assert_allclose(grad, want, atol=atol, rtol=1e-5)


# --------------------------------------------------------------------------- #
# pairwise squared distances
# --------------------------------------------------------------------------- #
class TestPairwiseSquaredDistances:
    @pytest.mark.parametrize("shape_a, shape_b", [
        ((2, 5, 3), (2, 7, 3)), ((1, 1, 4), (1, 6, 4)), ((6, 2), (4, 2)),
        ((3, 2, 5, 3), (3, 2, 4, 3)), ((1, 5, 3), (4, 6, 3))])
    def test_matches_oracle(self, rng, shape_a, shape_b):
        arrays = [rng.normal(size=shape_a), rng.normal(size=shape_b)]
        assert_matches_oracle(F.pairwise_squared_distances, oracle_pairwise, arrays)

    def test_clip_mask_on_negative_round_off(self, rng):
        # far from the origin |a|^2 - 2ab + |b|^2 of coinciding points rounds
        # to tiny values of either sign: the clip, and its mask, must act
        a = rng.normal(size=(1, 40, 3)) + 1.0e3
        b = np.concatenate([a[:, :25], rng.normal(size=(1, 10, 3)) + 1.0e3], axis=1)
        raw = ((a * a).sum(-1)[..., :, None] - 2.0 * a @ np.swapaxes(b, -1, -2)
               + (b * b).sum(-1)[..., None, :])
        assert (raw < 0.0).any(), "the case must exercise the clip"
        assert_matches_oracle(F.pairwise_squared_distances, oracle_pairwise, [a, b])
        assert (F.pairwise_squared_distances(Tensor(a), Tensor(b)).data >= 0).all()

    def test_same_tensor_on_both_sides(self, rng):
        points = [rng.normal(size=(9, 4))]
        assert_matches_oracle(lambda s: F.pairwise_squared_distances(s, s),
                              lambda s: oracle_pairwise(s, s), points)

    def test_skips_the_gradient_nobody_asked_for(self, rng):
        a = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5, 3)))
        F.pairwise_squared_distances(a, b).sum().backward()
        assert a.grad is not None and b.grad is None

    def test_central_difference(self, rng):
        arrays = [rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 5, 3))]
        assert_central_difference(F.pairwise_squared_distances, arrays)


# --------------------------------------------------------------------------- #
# affine (+ ReLU) and the layers built on it
# --------------------------------------------------------------------------- #
class TestAffine:
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("shape", [(5,), (4, 5), (2, 3, 5), (2, 2, 2, 2, 5)])
    def test_matches_oracle(self, rng, shape, relu):
        arrays = [rng.normal(size=shape), rng.normal(size=(5, 6)), rng.normal(size=6)]
        assert_matches_oracle(lambda x, w, b: F.affine(x, w, b, relu),
                              lambda x, w, b: oracle_affine(x, w, b, relu), arrays)

    def test_without_bias(self, rng):
        arrays = [rng.normal(size=(4, 5)), rng.normal(size=(5, 3))]
        assert_matches_oracle(lambda x, w: F.affine(x, w, None, True),
                              lambda x, w: oracle_affine(x, w, None, True), arrays)

    def test_short_bias_repeats_along_the_output(self, rng):
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 12)), rng.normal(size=3)]
        assert_matches_oracle(F.affine, oracle_affine, arrays)

    def test_exact_zero_pre_activations_pass_no_gradient(self, rng):
        x = rng.normal(size=(6, 4))
        x[::2] = 0.0                              # rows that map to exactly 0
        arrays = [x, rng.normal(size=(4, 5)), np.zeros(5)]
        out = F.affine(*(Tensor(a) for a in arrays), relu=True).data
        assert (out[::2] == 0.0).all()
        assert_matches_oracle(lambda x, w, b: F.affine(x, w, b, True),
                              lambda x, w, b: oracle_affine(x, w, b, True), arrays)

    @pytest.mark.parametrize("relu", [False, True])
    def test_central_difference(self, rng, relu):
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)]
        assert_central_difference(lambda x, w, b: F.affine(x, w, b, relu), arrays)

    @pytest.mark.parametrize("layer_type", [Linear, PointwiseConv])
    def test_layers_run_one_node_with_relu(self, rng, layer_type, monkeypatch):
        layer = layer_type(5, 4, rng=rng)
        x = rng.normal(size=(2, 3, 5))
        fused = layer(Tensor(x), relu=True).data
        with monkeypatch.context() as patch:
            install_oracles(patch)
            assert_close(fused, layer(Tensor(x), relu=True).data)

    def test_conv_transpose_matches_oracle(self, rng, monkeypatch):
        deconv = ConvTranspose3d(3, 2, rng=rng)
        x = rng.normal(size=(2, 2, 1, 3, 3))
        upstream = rng.normal(size=(2, 4, 2, 6, 2))

        def run():
            deconv.zero_grad()
            t = Tensor(x, requires_grad=True)
            out = deconv(t)
            (out * Tensor(upstream)).sum().backward()
            return [out.data, t.grad] + [p.grad for p in deconv.parameters()]

        fused = run()
        with monkeypatch.context() as patch:
            install_oracles(patch)
            for got, want in zip(fused, run()):
                assert_close(got, want)


class TestTakeColumns:
    def test_slices_match_getitem(self, rng):
        x = [rng.normal(size=(4, 10))]
        for columns in (slice(None, 3), slice(3, None), slice(2, 7)):
            assert_matches_oracle(lambda t: F.take_columns(t, columns),
                                  lambda t: t[:, columns], x)

    def test_permutation_matches_getitem(self, rng):
        permutation = rng.permutation(10)
        assert_matches_oracle(lambda t: F.take_columns(t, permutation),
                              lambda t: t[:, permutation], [rng.normal(size=(4, 10))])


# --------------------------------------------------------------------------- #
# losses
# --------------------------------------------------------------------------- #
def _clouds_with_duplicates(rng, batch: int, n: int, m: int, dim: int = 3):
    """Two clouds in which several points coincide, within and across the
    clouds — every kind of tie the two-sided minimum can meet."""
    a = rng.normal(size=(batch, n, dim))
    b = rng.normal(size=(batch, m, dim))
    a[:, 1] = a[:, 0]
    b[:, 2] = b[:, 0]
    b[:, 3] = a[:, 4]
    b[:, 4] = a[:, 4]
    return a, b


class TestChamferNode:
    @pytest.mark.parametrize("shape", [(1, 6, 6), (3, 8, 5), (2, 5, 9)])
    def test_matches_oracle_with_ties(self, rng, shape):
        batch, n, m = shape
        arrays = list(_clouds_with_duplicates(rng, batch, n, m))
        assert_matches_oracle(losses.chamfer_distance, oracle_chamfer, arrays)

    def test_ties_share_the_gradient(self, rng):
        d2 = Tensor(np.array([[[1.0, 1.0, 3.0], [2.0, 2.0, 2.5]]]), requires_grad=True)
        losses._two_sided_min_mean(d2).backward()
        want = Tensor(d2.data.copy(), requires_grad=True)
        oracle_min_mean(want).backward()
        np.testing.assert_allclose(d2.grad, want.grad, rtol=1e-14)
        assert d2.grad[0, 0, 0] == d2.grad[0, 0, 1] > 0.0

    def test_central_difference(self, rng):
        arrays = [rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 4, 3))]
        assert_central_difference(losses.chamfer_distance, arrays)


class TestMMDNode:
    @pytest.mark.parametrize("n, m, dim", [(6, 6, 4), (5, 9, 3), (1, 4, 2)])
    def test_matches_the_three_matrix_oracle(self, rng, n, m, dim):
        arrays = [rng.normal(size=(n, dim)), rng.normal(size=(m, dim)) + 0.3]
        assert_matches_oracle(lambda x, y: losses.mmd_imq(x, y, SCALES),
                              oracle_mmd_imq, arrays)

    def test_kernel_mean_node_matches_block_oracle(self, rng):
        # through a symmetric distance matrix: the node weighs the xy and yx
        # blocks equally, the oracle reads the xy block twice
        stacked = [rng.normal(size=(9, 3))]
        assert_matches_oracle(
            lambda s: losses._imq_mmd(oracle_pairwise(s, s), 4, SCALES),
            lambda s: oracle_imq_mmd(oracle_pairwise(s, s), 4, SCALES), stacked)

    def test_one_distance_matrix_per_call(self, rng, monkeypatch):
        calls = []
        original = F.pairwise_squared_distances
        monkeypatch.setattr(F, "pairwise_squared_distances",
                            lambda a, b: calls.append(1) or original(a, b))
        losses.mmd_imq(Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(6, 3))))
        losses.chamfer_distance(Tensor(rng.normal(size=(1, 5, 3))),
                                Tensor(rng.normal(size=(1, 6, 3))))
        assert len(calls) == 2

    def test_central_difference(self, rng):
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(5, 3))]
        assert_central_difference(lambda x, y: losses.mmd_imq(x, y, SCALES), arrays)


class TestLossTailNodes:
    """KL, MSE, reparameterise and the weighted total: one node each."""

    @pytest.mark.parametrize("shape", [(4, 3), (1, 5), (2, 3, 4)])
    def test_kl_matches_oracle(self, rng, shape):
        arrays = [rng.normal(size=shape), rng.normal(size=shape)]
        assert_matches_oracle(losses.kl_divergence_normal, oracle_kl, arrays)

    @pytest.mark.parametrize("shape_p, shape_t", [
        ((4, 3), (4, 3)), ((2, 5), (5,)), ((3, 1), (3, 4)), ((6,), (6,))])
    def test_mse_matches_oracle(self, rng, shape_p, shape_t):
        arrays = [rng.normal(size=shape_p), rng.normal(size=shape_t)]
        assert_matches_oracle(losses.mse_loss, oracle_mse, arrays)

    @pytest.mark.parametrize("shape", [(4, 3), (1, 6)])
    def test_reparameterize_matches_oracle(self, rng, shape):
        eps = rng.normal(size=shape)
        arrays = [rng.normal(size=shape), rng.normal(size=shape)]
        assert_matches_oracle(lambda mu, lv: F.reparameterize(mu, lv, eps),
                              lambda mu, lv: oracle_reparameterize(mu, lv, eps),
                              arrays)

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_weighted_sum_matches_oracle(self, rng, shape):
        weights = dataclasses.astuple(LossWeights())
        arrays = [rng.normal(size=shape) for _ in weights]
        assert_matches_oracle(lambda *terms: F.weighted_sum(terms, weights),
                              lambda *terms: oracle_weighted_sum(terms, weights),
                              arrays)

    def test_value_and_gradients_equal_the_oracles_bit_for_bit(self, rng):
        """Each node rounds as its oracle's tape did, so the two are equal,
        not just close (what keeps training from drifting)."""
        eps = rng.normal(size=(8, 5))
        weights = dataclasses.astuple(LossWeights())
        cases = [
            (losses.kl_divergence_normal, oracle_kl, 2),
            (losses.mse_loss, oracle_mse, 2),
            (lambda mu, lv: F.reparameterize(mu, lv, eps),
             lambda mu, lv: oracle_reparameterize(mu, lv, eps), 2)]
        for fused, oracle, n_inputs in cases:
            arrays = [rng.normal(size=(8, 5)) for _ in range(n_inputs)]
            value, grads = value_and_grads(fused, arrays)
            want_value, want_grads = value_and_grads(oracle, arrays)
            np.testing.assert_array_equal(value, want_value)
            for got, want in zip(grads, want_grads):
                np.testing.assert_array_equal(got, want)
        terms = [rng.normal(size=()) for _ in weights]
        value, grads = value_and_grads(lambda *t: F.weighted_sum(t, weights), terms)
        want_value, want_grads = value_and_grads(
            lambda *t: oracle_weighted_sum(t, weights), terms)
        np.testing.assert_array_equal(value, want_value)
        np.testing.assert_array_equal(grads, want_grads)

    def test_central_difference(self, rng):
        eps = rng.normal(size=(3, 4))
        weights = (1.0, 0.001, 0.3, 40.0, 0.03)
        cases = [
            (losses.kl_divergence_normal, [rng.normal(size=(3, 4)) for _ in range(2)]),
            (losses.mse_loss, [rng.normal(size=(3, 4)), rng.normal(size=(4,))]),
            (lambda mu, lv: F.reparameterize(mu, lv, eps),
             [rng.normal(size=(3, 4)) for _ in range(2)]),
            (lambda *terms: F.weighted_sum(terms, weights),
             [rng.normal(size=(2,)) for _ in weights])]
        for fn, arrays in cases:
            assert_central_difference(fn, arrays)


# --------------------------------------------------------------------------- #
# the Glow coupling block
# --------------------------------------------------------------------------- #
def _block_run(block: GlowCouplingBlock, x: np.ndarray, upstream: np.ndarray,
               inverse: bool):
    block.zero_grad()
    t = Tensor(x, requires_grad=True)
    out = block.inverse(t) if inverse else block(t)
    (out * Tensor(upstream)).sum().backward()
    return [out.data, t.grad] + [p.grad for p in block.parameters()]


class TestCouplingBlock:
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("hidden", [(12,), (10, 7)])
    def test_matches_oracle(self, rng, hidden, inverse, monkeypatch):
        block = GlowCouplingBlock(dim=8, hidden=hidden, rng=rng)
        x, upstream = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        fused = _block_run(block, x, upstream, inverse)
        with monkeypatch.context() as patch:
            install_oracles(patch)
            oracle = _block_run(block, x, upstream, inverse)
        assert len(fused) == 2 + 4 * (len(hidden) + 1)
        for got, want in zip(fused, oracle):
            assert_close(got, want)

    @pytest.mark.parametrize("hidden", [(12,), (10, 7)])
    def test_inverse_of_forward_is_identity(self, rng, hidden):
        block = GlowCouplingBlock(dim=8, hidden=hidden, rng=rng)
        x = rng.normal(size=(6, 8))
        back = block.inverse(block(Tensor(x))).data
        np.testing.assert_allclose(back, x, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_central_difference(self, rng, inverse):
        block = GlowCouplingBlock(dim=4, hidden=(5,), rng=rng)
        x, upstream = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        grads = _block_run(block, x, upstream, inverse)[1:]

        def scalar(_):
            out = block.coupling(x, inverse)[0]
            return float((out * upstream).sum())

        np.testing.assert_allclose(grads[0], numerical_gradient(
            lambda changed: float((block.coupling(changed, inverse)[0]
                                   * upstream).sum()), x.copy()), atol=1e-6)
        for grad, parameter in zip(grads[1:], block.parameters()):
            # numerical_gradient perturbs the array it is given in place
            want = numerical_gradient(scalar, parameter.data)
            np.testing.assert_allclose(grad, want, atol=1e-6)

    def test_one_node_per_pass(self, rng):
        block = GlowCouplingBlock(dim=8, hidden=(6, 6), rng=rng)
        x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        for out in (block(x), block.inverse(x)):
            assert out._parents[0] is x
            assert list(out._parents[1:]) == block.parameters()


# --------------------------------------------------------------------------- #
# the whole bench-tiny model and training iteration
# --------------------------------------------------------------------------- #
def _bench_tiny_batch(rng, batch: int = 8):
    config = get_preset("bench-tiny").ml.model
    clouds = rng.normal(size=(batch, config.n_input_points, POINT_DIM))
    clouds[:, 5] = clouds[:, 9]            # duplicated points: max-pool ties
    clouds[:, 6] = clouds[:, 9]
    spectra = rng.random((batch, config.spectrum_dim))
    return config, clouds, spectra


class TestFullModel:
    def _loss_and_gradients(self, config, clouds, spectra):
        model = ArtificialScientistModel(config, rng=np.random.default_rng(3))
        loss = CombinedLoss()
        output = model(Tensor(clouds), Tensor(spectra))
        total = loss(output, Tensor(clouds), Tensor(spectra))
        total.backward()
        return total.item(), loss.last_terms, {
            name: p.grad for name, p in model.named_parameters()}

    def test_all_parameter_gradients_match_the_oracle_tape(self, rng, monkeypatch):
        config, clouds, spectra = _bench_tiny_batch(rng)
        total, terms, grads = self._loss_and_gradients(config, clouds, spectra)
        with monkeypatch.context() as patch:
            install_oracles(patch)
            want_total, want_terms, want_grads = self._loss_and_gradients(
                config, clouds, spectra)
        assert total == pytest.approx(want_total, rel=1e-10)
        for name, value in want_terms.items():
            assert terms[name] == pytest.approx(value, rel=1e-7), name
        assert len(grads) == len(want_grads) == 32
        largest = max(float(np.abs(g).max()) for g in want_grads.values())
        for name, want in want_grads.items():
            assert grads[name] is not None, name
            np.testing.assert_allclose(grads[name], want, rtol=0.0,
                                       atol=1e-9 * largest, err_msg=name)

    def test_the_loss_tail_reproduces_its_oracles_bit_for_bit(self, rng, monkeypatch):
        """KL, MSE, reparameterise and the weighted total round their
        gradients as the op-by-op tape did, so training does not drift."""
        config, clouds, spectra = _bench_tiny_batch(rng)
        total, terms, grads = self._loss_and_gradients(config, clouds, spectra)
        with monkeypatch.context() as patch:
            install_loss_tail_oracles(patch)
            want_total, want_terms, want_grads = self._loss_and_gradients(
                config, clouds, spectra)
        assert (total, terms) == (want_total, want_terms)
        for name, want in want_grads.items():
            np.testing.assert_array_equal(grads[name], want, err_msg=name)

    def test_training_iteration_builds_at_most_40_nodes(self, rng, monkeypatch):
        config, clouds, spectra = _bench_tiny_batch(rng)
        model = ArtificialScientistModel(config, rng=np.random.default_rng(3))
        buffer = TrainingBuffer(now_size=8, ep_size=8, n_now=4, n_ep=4,
                                rng=np.random.default_rng(4))
        buffer.add_many([TrainingSample(point_cloud=c, spectrum=s, step=0)
                         for c, s in zip(clouds, spectra)])
        trainer = InTransitTrainer(model, Adam(model.parameters(), lr=1e-3), buffer)
        trainer.train_iteration(0)
        assert 0 < count_nodes(trainer) <= MAX_TAPE_NODES
        with monkeypatch.context() as patch:
            install_oracles(patch)
            oracle = count_nodes(trainer)
        assert oracle > 300            # the oracles really are op by op
