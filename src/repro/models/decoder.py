"""Point-cloud decoder (cyan block of Fig. 7).

A single fully connected layer transforms the latent vector into a small
voxel grid (paper: 1024 features reshaped to ``(4, 4, 4, 16)``), which 3D
deconvolutions with kernel size 2³ and stride 2³ upsample to the output
point cloud (paper: 4096 particles × 6 features).
"""

from __future__ import annotations

import numpy as np

from repro.mlcore.layers import ConvTranspose3d, Linear, ModuleList
from repro.mlcore.module import Module
from repro.mlcore.tensor import Tensor
from repro.models.config import ModelConfig
from repro.utils.rng import RandomState, seeded_rng


class PointCloudDecoder(Module):
    """Map latent vectors ``(B, latent_dim)`` to point clouds ``(B, M, POINT_DIM)``."""

    def __init__(self, config: ModelConfig, rng: RandomState = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.config = config
        d, h, w = config.decoder_grid
        first_channels = config.decoder_channels[0]
        self.grid_size = (d, h, w)
        self.first_channels = first_channels
        self.fc = Linear(config.latent_dim, d * h * w * first_channels, rng=rng)
        deconvs = []
        for c_in, c_out in zip(config.decoder_channels[:-1], config.decoder_channels[1:]):
            deconvs.append(ConvTranspose3d(c_in, c_out, rng=rng))
        self.deconvs = ModuleList(deconvs)

    def forward(self, latent: Tensor) -> Tensor:
        if latent.ndim != 2 or latent.shape[-1] != self.config.latent_dim:
            raise ValueError(f"expected latent of shape (B, {self.config.latent_dim})")
        b = latent.shape[0]
        d, h, w = self.grid_size
        voxels = self.fc(latent, relu=True).reshape(b, d, h, w, self.first_channels)
        for i, deconv in enumerate(self.deconvs):
            voxels = deconv(voxels)
            if i < len(self.deconvs) - 1:
                voxels = voxels.relu()
        b_, dd, hh, ww, c = voxels.shape
        return voxels.reshape(b_, dd * hh * ww, c)
