"""The variational auto-encoder combining encoder and decoder (Fig. 2b).

The paper chooses a *variational* AE rather than a plain AE because the INN
will never reproduce latent vectors exactly on its backward pass; training
the decoder on sampled (noisy) latents makes it robust against those
variations (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.mlcore import functional as F
from repro.mlcore.module import Module
from repro.mlcore.tensor import Tensor
from repro.models.config import ModelConfig
from repro.models.decoder import PointCloudDecoder
from repro.models.encoder import PointNetEncoder


class VariationalAutoEncoder(Module):
    """Encoder + reparameterised sampling + decoder."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.encoder = PointNetEncoder(config, rng=rng)
        self.decoder = PointCloudDecoder(config, rng=rng)
        self._sample_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))

    def encode(self, point_cloud: Tensor) -> Tuple[Tensor, Tensor]:
        """Return ``(mu, log_var)`` of the latent distribution."""
        return self.encoder(point_cloud)

    def reparameterize(self, mu: Tensor, log_var: Tensor,
                       sample: Optional[bool] = None) -> Tensor:
        """Draw ``z = mu + sigma * eps`` (one autograd node,
        :func:`repro.mlcore.functional.reparameterize`); deterministic
        (``z = mu``) in eval mode."""
        if sample is None:
            sample = self.training
        if not sample:
            return mu
        eps = self._sample_rng.standard_normal(size=mu.shape)
        return F.reparameterize(mu, log_var, eps)

    def decode(self, latent: Tensor) -> Tensor:
        return self.decoder(latent)

    def forward(self, point_cloud: Tensor) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
        """Full pass: returns ``(reconstruction, mu, log_var, z)``."""
        mu, log_var = self.encode(point_cloud)
        z = self.reparameterize(mu, log_var)
        reconstruction = self.decode(z)
        return reconstruction, mu, log_var, z
