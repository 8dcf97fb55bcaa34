"""The combined five-term training objective of Eq. (1).

``L = L_CD + 0.001 L_KL + 0.3 L_MSE + 40 L_MMD(z, z') + 0.03 L_MMD(N, N')``

* ``L_CD`` — Chamfer distance between the input point cloud and the VAE
  reconstruction,
* ``L_KL`` — Kullback-Leibler regularisation of the VAE latent,
* ``L_MSE`` — mean squared error between the INN's forward-predicted
  spectrum and the observed spectrum,
* ``L_MMD(z, z')`` — maximum mean discrepancy between encoder latents and
  the latents generated by the INN's backward pass,
* ``L_MMD(N, N')`` — MMD between a standard normal and the INN's forward
  normal output,

with an inverse multi-quadratic kernel for both MMD terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.mlcore import functional as F
from repro.mlcore.losses import chamfer_distance, kl_divergence_normal, mmd_imq, mse_loss
from repro.mlcore.tensor import Tensor


@dataclass(frozen=True)
class LossWeights:
    """Weights of Eq. (1); the defaults are the paper's empirically tuned values."""

    chamfer: float = 1.0
    kl: float = 0.001
    mse: float = 0.3
    mmd_latent: float = 40.0
    mmd_normal: float = 0.03


@dataclass
class CombinedLoss:
    """Callable evaluating the total loss and its individual terms."""

    weights: LossWeights = field(default_factory=LossWeights)

    def __call__(self, output: "ModelOutput", point_cloud: Tensor,
                 spectrum: Tensor) -> Tensor:
        """Return the total loss tensor; per-term values land in ``self.last_terms``."""
        w = self.weights
        l_cd = chamfer_distance(output.reconstruction, point_cloud)
        l_kl = kl_divergence_normal(output.mu, output.log_var)
        l_mse = mse_loss(output.spectrum_prediction, spectrum)
        l_mmd_latent = mmd_imq(output.latent, output.latent_backward)
        l_mmd_normal = mmd_imq(output.normal_prediction, output.normal_reference)
        total = F.weighted_sum(
            (l_cd, l_kl, l_mse, l_mmd_latent, l_mmd_normal),
            (w.chamfer, w.kl, w.mse, w.mmd_latent, w.mmd_normal))
        self.last_terms: Dict[str, float] = {
            "chamfer": float(l_cd.item()),
            "kl": float(l_kl.item()),
            "mse": float(l_mse.item()),
            "mmd_latent": float(l_mmd_latent.item()),
            "mmd_normal": float(l_mmd_normal.item()),
            "total": float(total.item()),
        }
        return total


# imported at the end to avoid a circular import at module load time
from repro.models.model import ModelOutput  # noqa: E402  (typing only)
