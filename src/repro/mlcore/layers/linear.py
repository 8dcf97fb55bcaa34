"""Affine layers and multi-layer perceptrons."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mlcore import functional as F
from repro.mlcore import init
from repro.mlcore.module import Module, Parameter
from repro.mlcore.tensor import Tensor


class Linear(Module):
    """Affine transformation ``y = x @ W + b``.

    Weights are stored as ``(in_features, out_features)`` so that batched
    inputs of shape ``(..., in_features)`` can be multiplied directly without
    a transpose on the hot path.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features), rng))
        bound = 1.0 / np.sqrt(in_features)
        self.bias = Parameter(rng.uniform(-bound, bound, size=(out_features,)))

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        return F.affine(x, self.weight, self.bias, relu)


class MLP(Module):
    """A stack of Linear layers with a ReLU between every two of them.

    The paper uses MLPs both as the encoder's µ/σ heads (608 → 544) and as
    the sub-networks of the Glow coupling blocks (→ 272 → 256 → 544).

    Parameters
    ----------
    dims:
        Sequence of layer widths ``(in, hidden..., out)``.
    """

    def __init__(self, dims: Sequence[int], rng: np.random.Generator) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        from repro.mlcore.layers.activation import ReLU
        from repro.mlcore.layers.container import Sequential
        self.dims = tuple(int(d) for d in dims)
        layers = []
        for a, b in zip(self.dims[:-1], self.dims[1:]):
            layers += [Linear(a, b, rng=rng), ReLU()]
        self.net = Sequential(*layers[:-1])

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
