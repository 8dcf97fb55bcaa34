"""Activation modules."""

from __future__ import annotations

from repro.mlcore.module import Module


class ReLU(Module):
    """Rectified linear unit.

    It has no forward pass of its own: in a
    :class:`~repro.mlcore.layers.container.Sequential` it rectifies the
    affine layer before it, inside that layer's autograd node.
    """
