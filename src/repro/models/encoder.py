"""PointNet-style encoder (light green block of Fig. 7).

6-dimensional vectors (positions and momenta) of the particles are fed
through 1×1 convolutions applied to every particle separately, followed by a
max pooling over the particle axis to obtain a transposition-invariant
feature set, which two MLP heads turn into the mean µ and log-variance of
the latent distribution.
"""

from __future__ import annotations

from typing import Tuple

from repro.mlcore.layers import MLP, MaxPoolPoints, PointwiseConv, ReLU, Sequential
from repro.mlcore.module import Module
from repro.mlcore.tensor import Tensor
from repro.models.config import POINT_DIM, ModelConfig
from repro.utils.rng import RandomState, seeded_rng


class PointNetEncoder(Module):
    """Map a batch of point clouds ``(B, N, POINT_DIM)`` to ``(mu, log_var)``."""

    def __init__(self, config: ModelConfig, rng: RandomState = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.config = config
        layers = []
        channels = (POINT_DIM,) + tuple(config.encoder_channels)
        for c_in, c_out in zip(channels[:-1], channels[1:]):
            layers.append(PointwiseConv(c_in, c_out, rng=rng))
            layers.append(ReLU())
        self.point_features = Sequential(*layers)
        self.pool = MaxPoolPoints()
        feature_dim = channels[-1]
        self.mu_head = MLP((feature_dim, config.encoder_head_hidden, config.latent_dim),
                           rng=rng)
        self.log_var_head = MLP((feature_dim, config.encoder_head_hidden, config.latent_dim),
                                rng=rng)

    def forward(self, point_cloud: Tensor) -> Tuple[Tensor, Tensor]:
        if point_cloud.ndim != 3 or point_cloud.shape[-1] != POINT_DIM:
            raise ValueError(
                f"expected point clouds of shape (B, N, {POINT_DIM})")
        features = self.point_features(point_cloud)     # (B, N, C)
        pooled = self.pool(features)                     # (B, C)
        mu = self.mu_head(pooled)
        log_var = self.log_var_head(pooled).clip(-10.0, 10.0)
        return mu, log_var
