"""Pooling layers."""

from __future__ import annotations

from repro.mlcore.module import Module
from repro.mlcore.tensor import Tensor


class MaxPoolPoints(Module):
    """Max pooling over the point axis of a point cloud.

    Reduces ``(B, N, C)`` to ``(B, C)``; this is the operation that makes the
    PointNet-style encoder invariant to transpositions (permutations) of the
    particles in the input vector, as required by the paper (Section IV-C).
    """

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim < 2:
            raise ValueError("MaxPoolPoints expects at least a 2D input")
        return x.max(axis=1)
