"""Convolution-style layers for point clouds and voxel grids.

The paper's encoder applies 1×1 convolutions to each particle independently
(channels 6 → 16 → 32 → 64 → 128 → 256 → 608); a 1×1 convolution over a
point set is mathematically a Linear layer applied to the channel axis, which
is how :class:`PointwiseConv` implements it (a single batched matmul).

The decoder upsamples a ``(4, 4, 4, 16)`` latent voxel grid with 3D
transposed convolutions with kernel size 2³ and stride 2³.  For that special
(but exactly the paper's) case each input voxel contributes an independent
2×2×2 output block, so the operation is a Linear map from ``C_in`` to
``8 · C_out`` followed by a reshape/interleave — again a single matmul.
:class:`ConvTranspose3d` implements exactly that case.
"""

from __future__ import annotations

import numpy as np

from repro.mlcore import functional as F
from repro.mlcore import init
from repro.mlcore.module import Module, Parameter
from repro.mlcore.tensor import Tensor
from repro.utils.rng import RandomState, seeded_rng


class PointwiseConv(Module):
    """1×1 convolution over a point cloud: ``(B, N, C_in) -> (B, N, C_out)``."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: RandomState = None) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = seeded_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(init.kaiming_uniform((in_channels, out_channels), rng))
        bound = 1.0 / np.sqrt(in_channels)
        self.bias = Parameter(rng.uniform(-bound, bound, size=(out_channels,)))

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        if x.shape[-1] != self.in_channels:
            raise ValueError(f"expected last dimension {self.in_channels}, "
                             f"got {x.shape[-1]}")
        return F.affine(x, self.weight, self.bias, relu)


#: The paper's deconvolution kernel and stride, per axis.
KERNEL_SIZE = 2


class ConvTranspose3d(Module):
    """Transposed 3D convolution with kernel 2³ and stride 2³ (no overlap).

    Input/output layout is channels-last: ``(B, D, H, W, C_in)`` maps to
    ``(B, 2D, 2H, 2W, C_out)``.  This exactly covers the decoder of the
    paper while keeping the implementation a single batched matrix product
    plus reshapes.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 rng: RandomState = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(init.kaiming_uniform(
            (in_channels, out_channels * KERNEL_SIZE ** 3), rng))
        bound = 1.0 / np.sqrt(in_channels)
        self.bias = Parameter(rng.uniform(-bound, bound, size=(out_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 5:
            raise ValueError("ConvTranspose3d expects (B, D, H, W, C_in) input")
        if x.shape[-1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, "
                             f"got {x.shape[-1]}")
        # (B, D, H, W, k^3 * C_out), one bias per channel repeated over the
        # kernel offsets, then each voxel's k^3 block moved to its place
        return _interleave(F.affine(x, self.weight, self.bias),
                           KERNEL_SIZE, self.out_channels)


def _interleave(blocks: Tensor, k: int, c_out: int) -> Tensor:
    """``(B, D, H, W, k^3 * C) -> (B, D*k, H*k, W*k, C)`` as one node: the
    kernel offsets of every input voxel interleaved with the spatial axes."""
    b, d, h, w, _ = blocks.shape

    def backward(g: np.ndarray):
        g = g.reshape(b, d, k, h, k, w, k, c_out)
        return (g.transpose(0, 1, 3, 5, 2, 4, 6, 7).reshape(blocks.shape),)

    out = blocks.data.reshape(b, d, h, w, k, k, k, c_out)
    out = out.transpose(0, 1, 4, 2, 5, 3, 6, 7).reshape(b, d * k, h * k, w * k, c_out)
    return Tensor._make(out, (blocks,), backward)
