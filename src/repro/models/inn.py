"""Invertible neural network (violet block of Fig. 7).

Built from Glow-style affine coupling blocks (Kingma & Dhariwal 2018) with
MLP sub-networks, following the inverse-problem framework of Ardizzone et
al. (2018): the forward pass maps the (data-defined) latent vector z to
``[y, N]`` where ``y`` is trained to match the observed radiation spectrum
and ``N`` to follow a standard normal; the backward pass maps an observed
spectrum plus a normal sample back to a latent vector, from which the VAE
decoder generates particle dynamics — one sample from the posterior of the
ill-posed inverse problem per draw of ``N``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.mlcore import functional as F
from repro.mlcore.layers import MLP, Linear, ModuleList
from repro.mlcore.module import Module
from repro.mlcore.tensor import Tensor, concatenate
from repro.models.config import ModelConfig
from repro.utils.rng import RandomState, seeded_rng


def _subnet_forward(layers: Sequence[Linear], x: np.ndarray) -> List[np.ndarray]:
    """ReLU-MLP forward on arrays: every layer's output, the last one being
    the network's."""
    outputs = []
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        x = F.affine_forward(x, layer.weight.data, layer.bias.data, relu=i < last)
        outputs.append(x)
    return outputs


def _subnet_backward(layers: Sequence[Linear], x: np.ndarray,
                     outputs: List[np.ndarray], g: np.ndarray):
    """Gradient of :func:`_subnet_forward` with respect to its input and to
    the parameters, the latter ordered ``[W_0, b_0, W_1, b_1, ...]``."""
    grads: List[np.ndarray] = []
    last = len(layers) - 1
    for i in range(last, -1, -1):
        layer = layers[i]
        g, g_weight, g_bias = F.affine_backward(
            g, outputs[i - 1] if i else x, layer.weight.data, layer.bias.data,
            outputs[i], relu=i < last)
        grads[:0] = (g_weight, g_bias)
    return g, grads


def _couple(layers: Sequence[Linear], condition: np.ndarray, target: np.ndarray,
            clamp: float, inverse: bool):
    """One affine half-coupling on arrays.

    With ``(s, t)`` the two halves of ``subnet(condition)`` and the scale
    soft-clamped to ``s = clamp * tanh(.)``, maps ``target`` to
    ``target * exp(s) + t`` — or, for ``inverse``, to
    ``(target - t) * exp(-s)``.

    Returns ``(out, s, backward)``; ``backward(g_out)`` gives the gradients
    with respect to ``target``, ``condition`` and the subnet parameters.
    """
    half = target.shape[1]
    outputs = _subnet_forward(layers, condition)
    raw = outputs[-1]
    tanh_s = np.tanh(raw[:, :half])
    scale = clamp * tanh_s
    shift = raw[:, half:]
    if inverse:
        factor = np.exp(-scale)
        out = (target - shift) * factor
    else:
        factor = np.exp(scale)
        out = target * factor + shift

    def backward(g: np.ndarray):
        g_target = g * factor
        g_raw = np.empty_like(raw)
        if inverse:
            np.negative(g_target, out=g_raw[:, half:])
            g_scale = -g * out
        else:
            g_raw[:, half:] = g
            g_scale = g_target * target
        g_raw[:, :half] = g_scale * clamp * (1.0 - tanh_s * tanh_s)
        g_condition, grads = _subnet_backward(layers, condition, outputs, g_raw)
        return g_target, g_condition, grads

    return out, scale, backward


class GlowCouplingBlock(Module):
    """One affine coupling block operating on vectors of size ``dim``.

    The input is split into two halves; each half is scaled and shifted by
    an MLP of the other half.  The scale is soft-clamped with
    ``exp(clamp * tanh(s))`` for numerical stability (as in the FrEIA
    implementation used with PyTorch).

    :meth:`forward` and :meth:`inverse` are each a single autograd node with
    a hand-written backward pass (both sub-networks, the clamp, the affine
    map and the concatenation inside); the same block written with
    primitive ``Tensor`` operations is the oracle in
    ``tests/mlcore/test_fused_ops.py``.
    """

    def __init__(self, dim: int, hidden: Tuple[int, ...] = (64,), clamp: float = 2.0,
                 rng: RandomState = None) -> None:
        super().__init__()
        if dim < 2 or dim % 2 != 0:
            raise ValueError("dim must be an even number >= 2")
        rng = seeded_rng(rng)
        self.dim = int(dim)
        self.half = self.dim // 2
        self.clamp = float(clamp)
        self.subnet1 = MLP((self.half, *hidden, 2 * self.half), rng=rng)
        self.subnet2 = MLP((self.half, *hidden, 2 * self.half), rng=rng)
        self._linears = tuple(tuple(m for m in net.net if isinstance(m, Linear))
                              for net in (self.subnet1, self.subnet2))
        self._tape_parents = tuple(self.parameters())

    # -- forward / inverse ---------------------------------------------------- #
    def coupling(self, x: np.ndarray, inverse: bool = False):
        """The block on arrays: ``(out, (scale1, scale2), backward)``.

        Forward, the lower half is transformed conditioned on the upper one
        (``subnet1``), then the upper half conditioned on the new lower one
        (``subnet2``); the inverse undoes the two steps in reverse order.
        ``scale1``/``scale2`` are the clamped log-scales of the two steps and
        ``backward(g_out)`` returns the gradients with respect to ``x`` and
        to the parameters of ``subnet1`` then ``subnet2``.
        """
        half = self.half
        nets = self._linears
        # the half transformed first, and the sub-network transforming it
        first = 1 if inverse else 0
        halves = (x[:, :half], x[:, half:])
        new_first, scale_a, back_a = _couple(
            nets[first], halves[1 - first], halves[first], self.clamp, inverse)
        new_second, scale_b, back_b = _couple(
            nets[1 - first], new_first, halves[1 - first], self.clamp, inverse)
        out = np.empty_like(x)
        out_halves = (out[:, :half], out[:, half:])
        out_halves[first][...] = new_first
        out_halves[1 - first][...] = new_second

        def backward(g: np.ndarray):
            g_halves = (g[:, :half], g[:, half:])
            g_second, g_new_first, grads_b = back_b(g_halves[1 - first])
            g_first, g_condition, grads_a = back_a(g_halves[first] + g_new_first)
            g_x = np.empty_like(x)
            g_x_halves = (g_x[:, :half], g_x[:, half:])
            g_x_halves[first][...] = g_first
            np.add(g_second, g_condition, out=g_x_halves[1 - first])
            grads = (grads_b, grads_a) if inverse else (grads_a, grads_b)
            return (g_x, *grads[0], *grads[1])

        scales = (scale_b, scale_a) if inverse else (scale_a, scale_b)
        return out, scales, backward

    def _node(self, x: Tensor, inverse: bool) -> Tensor:
        out, _, backward = self.coupling(x.data, inverse)
        return Tensor._make(out, (x, *self._tape_parents), backward)

    def forward(self, x: Tensor) -> Tensor:
        return self._node(x, inverse=False)

    def inverse(self, y: Tensor) -> Tensor:
        return self._node(y, inverse=True)


class _Permutation(Module):
    """Fixed random permutation of the feature axis (invertible, no parameters)."""

    def __init__(self, dim: int, rng: RandomState = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.permutation = rng.permutation(dim)
        self.inverse_permutation = np.argsort(self.permutation)

    def forward(self, x: Tensor) -> Tensor:
        return F.take_columns(x, self.permutation)

    def inverse(self, x: Tensor) -> Tensor:
        return F.take_columns(x, self.inverse_permutation)


class InvertibleNetwork(Module):
    """A stack of permutation + coupling blocks with exact inverse.

    The information volume is constant throughout the network (a defining
    property of flow models): input and output both have ``latent_dim``
    entries.  :meth:`split_output` separates the forward output into the
    predicted spectrum encoding and the normal latent part according to the
    model configuration.
    """

    def __init__(self, config: ModelConfig, rng: RandomState = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.config = config
        blocks: List[Module] = []
        permutations: List[Module] = []
        for _ in range(config.inn_blocks):
            permutations.append(_Permutation(config.latent_dim, rng=rng))
            blocks.append(GlowCouplingBlock(config.latent_dim, hidden=config.inn_hidden,
                                            rng=rng))
        self.blocks = ModuleList(blocks)
        self.permutations = ModuleList(permutations)

    # -- passes --------------------------------------------------------------- #
    def forward(self, z: Tensor) -> Tensor:
        if z.ndim != 2 or z.shape[-1] != self.config.latent_dim:
            raise ValueError(f"expected input of shape (B, {self.config.latent_dim})")
        out = z
        for permutation, block in zip(self.permutations, self.blocks):
            out = block(permutation(out))
        return out

    def inverse(self, y: Tensor) -> Tensor:
        if y.ndim != 2 or y.shape[-1] != self.config.latent_dim:
            raise ValueError(f"expected input of shape (B, {self.config.latent_dim})")
        out = y
        for permutation, block in zip(reversed(list(self.permutations)),
                                      reversed(list(self.blocks))):
            out = permutation.inverse(block.inverse(out))
        return out

    # -- semantic split ---------------------------------------------------------- #
    def split_output(self, forward_output: Tensor) -> Tuple[Tensor, Tensor]:
        """Split a forward output into ``(spectrum_prediction, normal_latent)``."""
        s = self.config.spectrum_dim
        return (F.take_columns(forward_output, slice(None, s)),
                F.take_columns(forward_output, slice(s, None)))

    def assemble_condition(self, spectrum: Tensor, normal_sample: Tensor) -> Tensor:
        """Concatenate an observed spectrum and a normal draw for the backward pass."""
        if spectrum.shape[-1] != self.config.spectrum_dim:
            raise ValueError(f"spectrum must have {self.config.spectrum_dim} entries")
        if normal_sample.shape[-1] != self.config.normal_dim:
            raise ValueError(f"normal sample must have {self.config.normal_dim} entries")
        return concatenate([spectrum, normal_sample], axis=1)
