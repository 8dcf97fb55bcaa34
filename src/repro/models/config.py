"""Model configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Per-particle features of a point cloud: 3 positions, then 3 momenta
#: (the layout :func:`repro.core.transforms.encode_point_cloud` writes).
POINT_DIM = 6


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the VAE + INN architecture.

    Attributes
    ----------
    n_input_points:
        Particles per input point cloud (paper: 3·10⁴).
    encoder_channels:
        Channel progression of the 1×1 convolutions (paper:
        6 → 16 → 32 → 64 → 128 → 256 → 608).
    encoder_head_hidden:
        Hidden width of the two MLP heads producing µ and log σ² (paper: 544).
    latent_dim:
        Dimension of the latent vector z (paper: 544).  Must be even (the
        Glow coupling blocks split it in half).
    decoder_grid:
        Spatial shape of the voxel grid the decoder starts from (paper: 4³).
    decoder_channels:
        Channel progression of the 3D deconvolutions (paper: 16 → 8 → 6);
        each stage doubles every spatial dimension, so the paper's decoder
        outputs 16³ = 4096 particles with :data:`POINT_DIM` features
        each.
    spectrum_dim:
        Length of the encoded radiation spectrum.  The INN's forward output
        is split into ``[spectrum_dim | latent_dim - spectrum_dim]``.
    inn_blocks:
        Number of Glow coupling blocks (paper: 4).
    inn_hidden:
        Hidden widths of the coupling sub-network MLPs (paper: 272 → 256 →
        544, chosen to form a bottleneck of powers of two).
    """

    n_input_points: int = 128
    encoder_channels: Tuple[int, ...] = (16, 32, 64)
    encoder_head_hidden: int = 48
    latent_dim: int = 32
    decoder_grid: Tuple[int, int, int] = (2, 2, 2)
    decoder_channels: Tuple[int, ...] = (16, 8, 6)
    spectrum_dim: int = 16
    inn_blocks: int = 4
    inn_hidden: Tuple[int, ...] = (32, 32)

    def __post_init__(self) -> None:
        if self.latent_dim % 2 != 0:
            raise ValueError("latent_dim must be even (coupling blocks split it in half)")
        if not 0 < self.spectrum_dim < self.latent_dim:
            raise ValueError("spectrum_dim must lie strictly between 0 and latent_dim")
        if self.decoder_channels[-1] != POINT_DIM:
            raise ValueError(f"the last decoder channel count must equal "
                             f"POINT_DIM ({POINT_DIM})")
        if self.n_input_points < 1:
            raise ValueError("n_input_points must be positive")

    @property
    def n_output_points(self) -> int:
        """Number of points the decoder generates."""
        upsampling = 2 ** (len(self.decoder_channels) - 1)
        d, h, w = self.decoder_grid
        return d * h * w * upsampling ** 3

    @property
    def normal_dim(self) -> int:
        """Dimension of the INN's normal latent ``N`` (forward output tail)."""
        return self.latent_dim - self.spectrum_dim


def small_config(spectrum_dim: int = 16) -> ModelConfig:
    """A configuration small enough for tests and laptop examples."""
    return ModelConfig(spectrum_dim=spectrum_dim)


def paper_config() -> ModelConfig:
    """The architecture exactly as described in Section IV-C of the paper."""
    return ModelConfig(
        n_input_points=30_000,
        encoder_channels=(16, 32, 64, 128, 256, 608),
        encoder_head_hidden=544,
        latent_dim=544,
        decoder_grid=(4, 4, 4),
        decoder_channels=(16, 8, 6),
        spectrum_dim=128,
        inn_blocks=4,
        inn_hidden=(272, 256, 544),
    )
