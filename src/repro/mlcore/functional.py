"""The fused autograd nodes the model is built from.

Each function here is one tape node with a hand-written backward pass in
place of the chain of primitive :class:`~repro.mlcore.tensor.Tensor`
operations it replaces; ``tests/mlcore/test_fused_ops.py`` holds those
chains as the oracles every node must reproduce."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.mlcore.tensor import Tensor


def pairwise_squared_distances(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise squared Euclidean distances between two point sets.

    Parameters
    ----------
    a:
        Tensor of shape ``(..., N, D)``.
    b:
        Tensor of shape ``(..., M, D)``.

    Returns
    -------
    Tensor of shape ``(..., N, M)`` with ``|a_i - b_j|^2``.

    Notes
    -----
    Uses the expansion ``|a|^2 - 2 a.b + |b|^2`` so that the dominant cost is
    a single batched matrix product (cache friendly, as recommended by the
    optimisation guide), and clips tiny negative values arising from
    round-off.  One autograd node: with ``G`` the incoming gradient masked
    where the clip was active, ``dL/da = 2 (rowsum(G) a - G b)`` and
    ``dL/db = 2 (colsum(G) b - G^T a)``.
    """
    x, y = a.data, b.data
    d2 = x @ np.swapaxes(y, -1, -2)
    d2 *= -2.0
    d2 += (x * x).sum(axis=-1)[..., :, None]
    d2 += (y * y).sum(axis=-1)[..., None, :]
    clipped = d2 < 0.0
    d2[clipped] = 0.0

    def backward(g: np.ndarray):
        g = np.where(clipped, 0.0, g)
        ga = gb = None
        if a.requires_grad:
            ga = g.sum(axis=-1)[..., :, None] * x
            ga -= g @ y
            ga *= 2.0
        if b.requires_grad:
            gt = np.swapaxes(g, -1, -2)
            gb = gt.sum(axis=-1)[..., :, None] * y
            gb -= gt @ x
            gb *= 2.0
        return ga, gb

    return Tensor._make(d2, (a, b), backward)


def reparameterize(mu: Tensor, log_var: Tensor, eps: np.ndarray) -> Tensor:
    """``mu + exp(log_var / 2) * eps`` — a draw from ``N(mu, exp(log_var))``
    given the standard-normal ``eps`` — as one autograd node.

    With ``sigma = exp(log_var / 2)``: ``dz/dmu = 1`` and
    ``dz/dlog_var = eps sigma / 2``, multiplied in the order the op-by-op
    tape multiplied it, so training reproduces it bit for bit.
    """
    sigma = np.exp(log_var.data * 0.5)
    return Tensor._make(mu.data + sigma * eps, (mu, log_var),
                        lambda g: (g, g * eps * sigma * 0.5))


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """``terms[0] * weights[0] + terms[1] * weights[1] + ...`` (same-shape
    terms, summed left to right) as one autograd node."""
    terms, weights = tuple(terms), tuple(weights)
    value = terms[0].data * weights[0]
    for term, weight in zip(terms[1:], weights[1:]):
        value = value + term.data * weight
    return Tensor._make(value, terms, lambda g: tuple(g * w for w in weights))


def affine_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   relu: bool) -> np.ndarray:
    """Array half of :func:`affine`: ``x @ weight + bias``, optionally
    rectified.  A bias shorter than the output width repeats along it."""
    out = x @ weight
    view = out.reshape(-1, bias.shape[0])
    view += bias
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def affine_backward(g: np.ndarray, x: np.ndarray, weight: np.ndarray,
                    bias: np.ndarray, out: np.ndarray, relu: bool,
                    need_input: bool = True):
    """Gradients of :func:`affine_forward` with respect to ``(x, weight,
    bias)`` given the gradient ``g`` of its output ``out``; the input
    gradient is skipped (``None``) unless ``need_input``."""
    if relu:
        g = g * (out > 0.0)
    g2 = g.reshape(-1, weight.shape[1])
    g_input = (g2 @ weight.T).reshape(x.shape) if need_input else None
    g_weight = x.reshape(-1, weight.shape[0]).T @ g2
    g_bias = g.reshape(-1, bias.shape[0]).sum(axis=0)
    return g_input, g_weight, g_bias


def affine(x: Tensor, weight: Tensor, bias: Tensor,
           relu: bool = False) -> Tensor:
    """``x @ weight + bias`` (then ReLU if ``relu``) as one autograd node.

    ``weight`` has shape ``(in, out)`` and ``x`` shape ``(..., in)``.  A
    ``bias`` whose length divides ``out`` is repeated along the output axis
    (the transposed convolution's one-bias-per-channel over ``k^3`` kernel
    offsets).
    """
    b = bias.data
    out = affine_forward(x.data, weight.data, b, relu)
    return Tensor._make(
        out, (x, weight, bias),
        lambda g: affine_backward(g, x.data, weight.data, b, out, relu,
                                  need_input=x.requires_grad))


def take_columns(x: Tensor, columns: Union[slice, np.ndarray]) -> Tensor:
    """``x[:, columns]`` for columns that are each selected at most once (a
    slice or a permutation).

    The backward pass is then a plain indexed assignment — not the
    unbuffered ``np.add.at`` the general ``Tensor.__getitem__`` needs.
    """
    shape = x.data.shape

    def backward(g: np.ndarray):
        full = np.zeros(shape)
        full[:, columns] = g
        return (full,)

    return Tensor._make(x.data[:, columns], (x,), backward)
