"""Loss functions used by the paper's five-term objective (Eq. (1)).

* :func:`mse_loss` — spectrum prediction loss ``L_MSE``.
* :func:`chamfer_distance` — the VAE point-cloud reconstruction loss
  ``L_CD`` (cheap, but insensitive to point density, as the paper notes).
* :func:`kl_divergence_normal` — the VAE latent regulariser ``L_KL``.
* :func:`mmd_imq` — maximum mean discrepancy with an inverse multi-quadratic
  kernel, used for ``L_MMD(N, N')`` and ``L_MMD(z, z')`` (following
  Ardizzone et al.).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.mlcore import functional as F
from repro.mlcore.tensor import Tensor, concatenate

#: Bandwidths of the inverse multi-quadratic kernel of :func:`mmd_imq`: the
#: multi-scale choice common in INN training.
MMD_SCALES = (0.05, 0.2, 0.9)

ArrayOrTensor = Union[Tensor, np.ndarray]


def _as_tensor(x: ArrayOrTensor) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def mse_loss(prediction: ArrayOrTensor, target: ArrayOrTensor) -> Tensor:
    """Mean squared error averaged over all elements, as one autograd node.

    ``d/dprediction = 2 (prediction - target) / n`` and the negative of it
    for ``target`` (reduced over any axes the two were broadcast along).
    """
    prediction = _as_tensor(prediction)
    target = _as_tensor(target)
    diff = prediction.data - target.data
    scale = 1.0 / max(diff.size, 1)

    def backward(g: np.ndarray):
        grad = diff * (2.0 * scale * g)
        return grad, (-grad if target.requires_grad else None)

    return Tensor._make((diff * diff).sum() * scale, (prediction, target),
                        backward)


def chamfer_distance(a: ArrayOrTensor, b: ArrayOrTensor) -> Tensor:
    """Symmetric Chamfer distance between two point clouds, averaged over
    the batch.

    Parameters
    ----------
    a, b:
        Point clouds of shape ``(B, N, D)`` and ``(B, M, D)`` (a leading
        batch axis is required; pass ``points[None]`` for a single cloud).

    Notes
    -----
    ``CD(A, B) = mean_i min_j |a_i - b_j|^2 + mean_j min_i |a_i - b_j|^2``.
    The pairwise distance matrix is computed once and reused for both
    directions.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("chamfer_distance expects (B, N, D) point clouds")
    if a.shape[0] != b.shape[0]:
        raise ValueError("batch sizes must match")
    d2 = F.pairwise_squared_distances(a, b)          # (B, N, M)
    return _two_sided_min_mean(d2)


def _two_sided_min_mean(d2: Tensor) -> Tensor:
    """``mean_i min_j d2 + mean_j min_i d2`` per batch entry, averaged over
    the batch, as one autograd node.

    The gradient of a minimum attained at several entries (duplicated
    points) is shared equally between them, as ``Tensor.max`` does.
    """
    d = d2.data
    row_min = d.min(axis=2, keepdims=True)           # nearest b of every a
    col_min = d.min(axis=1, keepdims=True)           # nearest a of every b
    value = row_min.mean(axis=(1, 2)) + col_min.mean(axis=(1, 2))    # (B,)
    batch, n, m = d.shape
    scale = 1.0 / batch
    value = value.sum() * scale

    def backward(g: np.ndarray):
        rows = (d == row_min).astype(np.float64)
        rows /= rows.sum(axis=2, keepdims=True) * n
        cols = (d == col_min).astype(np.float64)
        cols /= cols.sum(axis=1, keepdims=True) * m
        rows += cols
        rows *= g * scale
        return (rows,)

    return Tensor._make(value, (d2,), backward)


def kl_divergence_normal(mu: ArrayOrTensor, log_var: ArrayOrTensor) -> Tensor:
    """KL divergence ``KL(N(mu, sigma^2) || N(0, 1))`` averaged over the batch.

    ``log_var`` is the natural logarithm of the variance, the standard VAE
    parameterisation (Kingma & Welling).  One autograd node: with ``n`` the
    number of samples, ``d/dmu = mu / n`` and
    ``d/dlog_var = (exp(log_var) - 1) / (2 n)``.
    """
    mu = _as_tensor(mu)
    log_var = _as_tensor(log_var)
    m, lv = mu.data, log_var.data
    variance = np.exp(lv)
    # 0.5 * sum(exp(logvar) + mu^2 - 1 - logvar) per sample, then batch mean.
    terms = variance + m * m
    terms -= 1.0
    terms -= lv
    per_sample = terms.sum(axis=-1) * 0.5
    scale = 1.0 / max(per_sample.size, 1)

    def backward(g: np.ndarray):
        # rounded as the op-by-op tape rounded it (exp(lv) h - h, not
        # (exp(lv) - 1) h), so training reproduces it bit for bit
        g = g * scale
        half = g * 0.5
        g_log_var = variance * half
        g_log_var -= half
        return m * g, g_log_var

    return Tensor._make(per_sample.sum() * scale, (mu, log_var), backward)


def _imq_mmd(d2: Tensor, n_x: int, scales: Sequence[float]) -> Tensor:
    """MMD^2 from the distance matrix of the stacked sample ``[x; y]``, as
    one autograd node.

    With the inverse multi-quadratic kernel ``k = sum_s s / (s + d^2)``
    (Ardizzone et al.) and ``u = (1/N, ..., 1/N, -1/M, ..., -1/M)`` the
    estimator ``mean k(x, x) + mean k(y, y) - 2 mean k(x, y)`` is the
    quadratic form ``u^T K u``.
    """
    d = d2.data
    n_y = d.shape[0] - n_x
    u = np.concatenate([np.full(n_x, 1.0 / n_x), np.full(n_y, -1.0 / n_y)])
    coefficients = u[:, None] * u[None, :]
    kernel = np.zeros_like(d)
    slope = np.zeros_like(d)                          # dK / d(d^2)
    for scale in scales:
        term = 1.0 / (d * (1.0 / scale) + 1.0)
        kernel += term
        term *= term
        term *= 1.0 / scale
        slope -= term
    slope *= coefficients
    return Tensor._make((coefficients * kernel).sum(), (d2,),
                        lambda g: (g * slope,))


def mmd_imq(x: ArrayOrTensor, y: ArrayOrTensor) -> Tensor:
    """Maximum mean discrepancy with an inverse multi-quadratic kernel of
    bandwidths :data:`MMD_SCALES`.

    Parameters
    ----------
    x, y:
        Samples of shape ``(N, D)`` and ``(M, D)`` drawn from the two
        distributions to compare.

    Returns
    -------
    A scalar tensor ``MMD^2(x, y) >= 0`` (up to sampling noise).

    Notes
    -----
    All three kernel blocks come from one distance matrix of the stacked
    sample ``[x; y]``.
    """
    x = _as_tensor(x)
    y = _as_tensor(y)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("mmd_imq expects 2D sample matrices (N, D)")
    stacked = concatenate([x, y], axis=0)
    d2 = F.pairwise_squared_distances(stacked, stacked)
    return _imq_mmd(d2, x.shape[0], MMD_SCALES)
