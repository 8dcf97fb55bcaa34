"""The paper's machine-learning architecture (Fig. 2 / Fig. 7).

Three blocks integrate into one model:

* a PointNet-style **encoder** mapping a particle point cloud (positions +
  momenta) to the mean and variance of a latent vector,
* a 3D-deconvolution **decoder** reconstructing a point cloud from the
  latent vector (encoder + decoder = the VAE of Fig. 2b),
* an **INN** built from Glow coupling blocks whose forward pass maps the
  latent vector to ``[predicted radiation spectrum, normal latent]``
  (Fig. 2c, the surrogate) and whose backward pass maps
  ``[observed spectrum, normal sample]`` back to a latent vector and thus —
  through the decoder — to particle dynamics (Fig. 2a, the inversion).

The default dimensions are scaled down so the whole pipeline trains within
seconds; :func:`repro.models.config.paper_config` restores the paper's
numbers (3·10⁴ particles, 608 features, 544-dimensional latent, four Glow
blocks with → 272 → 256 → 544 sub-networks).
"""

from repro.models.config import ModelConfig, paper_config
from repro.models.encoder import PointNetEncoder
from repro.models.decoder import PointCloudDecoder
from repro.models.vae import VariationalAutoEncoder
from repro.models.inn import GlowCouplingBlock, InvertibleNetwork
from repro.models.model import ArtificialScientistModel, ModelOutput
from repro.models.losses import CombinedLoss, LossWeights

__all__ = [
    "ModelConfig",
    "paper_config",
    "PointNetEncoder",
    "PointCloudDecoder",
    "VariationalAutoEncoder",
    "GlowCouplingBlock",
    "InvertibleNetwork",
    "ArtificialScientistModel",
    "ModelOutput",
    "CombinedLoss",
    "LossWeights",
]
