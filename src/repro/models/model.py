"""The full Artificial-Scientist model: VAE + INN (Fig. 7).

One training pass produces everything the five-term loss needs:

1. encode the particle point cloud → (µ, log σ²), sample z,
2. decode z → reconstructed point cloud (``L_CD``, ``L_KL``),
3. INN forward on z → [predicted spectrum I', normal output N']
   (``L_MSE(I', I)``, ``L_MMD(N, N')``),
4. INN backward on [observed spectrum I, fresh normal draw N] → z'
   (``L_MMD(z, z')``).

At inference time, :meth:`predict_particles_from_radiation` runs the
backward pass for several normal draws and decodes each resulting latent —
sampling from the posterior of the ill-posed inverse problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.mlcore.module import Module, Parameter
from repro.mlcore.tensor import Tensor, no_grad
from repro.models.config import POINT_DIM, ModelConfig
from repro.models.inn import InvertibleNetwork
from repro.models.vae import VariationalAutoEncoder
from repro.utils.rng import RandomState, seeded_rng


@dataclass
class ModelOutput:
    """All tensors produced by one full training pass."""

    reconstruction: Tensor        #: decoded point cloud (B, M, POINT_DIM)
    mu: Tensor                    #: encoder mean (B, latent_dim)
    log_var: Tensor               #: encoder log variance (B, latent_dim)
    latent: Tensor                #: sampled latent z (B, latent_dim)
    spectrum_prediction: Tensor   #: INN forward spectrum part (B, spectrum_dim)
    normal_prediction: Tensor     #: INN forward normal part N' (B, normal_dim)
    normal_reference: Tensor      #: fresh standard-normal draw N (B, normal_dim)
    latent_backward: Tensor       #: INN backward latent z' (B, latent_dim)


class ArtificialScientistModel(Module):
    """VAE + INN with the paper's three tasks (inversion, compression, surrogate)."""

    def __init__(self, config: Optional[ModelConfig] = None, rng: RandomState = None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.config = config or ModelConfig()
        self.vae = VariationalAutoEncoder(self.config, rng=rng)
        self.inn = InvertibleNetwork(self.config, rng=rng)
        self._rng = seeded_rng(int(rng.integers(0, 2**31 - 1)))

    # -- parameter groups (for the separate l_VAE / l_INN learning rates) -- #
    def vae_parameters(self) -> List[Parameter]:
        return self.vae.parameters()

    def inn_parameters(self) -> List[Parameter]:
        return self.inn.parameters()

    # -- training pass ------------------------------------------------------ #
    def forward(self, point_cloud: Tensor, spectrum: Tensor) -> ModelOutput:
        """One full pass producing every quantity of the Eq. (1) loss."""
        point_cloud = point_cloud if isinstance(point_cloud, Tensor) else Tensor(point_cloud)
        spectrum = spectrum if isinstance(spectrum, Tensor) else Tensor(spectrum)
        if spectrum.ndim != 2 or spectrum.shape[-1] != self.config.spectrum_dim:
            raise ValueError(f"spectrum must have shape (B, {self.config.spectrum_dim})")
        reconstruction, mu, log_var, z = self.vae(point_cloud)

        forward_out = self.inn(z)
        spectrum_prediction, normal_prediction = self.inn.split_output(forward_out)

        batch = point_cloud.shape[0]
        normal_reference = Tensor(self._rng.standard_normal((batch, self.config.normal_dim)))
        backward_input = self.inn.assemble_condition(spectrum, normal_reference)
        latent_backward = self.inn.inverse(backward_input)

        return ModelOutput(reconstruction=reconstruction, mu=mu, log_var=log_var,
                           latent=z, spectrum_prediction=spectrum_prediction,
                           normal_prediction=normal_prediction,
                           normal_reference=normal_reference,
                           latent_backward=latent_backward)

    # -- inference ------------------------------------------------------------ #
    def predict_particles_from_radiation(self, spectrum: np.ndarray,
                                         n_samples: int = 8) -> np.ndarray:
        """Sample particle point clouds consistent with an observed spectrum.

        Parameters
        ----------
        spectrum:
            Encoded spectrum of shape ``(spectrum_dim,)`` or
            ``(B, spectrum_dim)``.
        n_samples:
            Posterior samples per spectrum (each uses an independent normal
            draw for the INN's latent input).

        Returns
        -------
        Array of shape ``(B, n_samples, M, POINT_DIM)``.
        """
        spectrum = np.atleast_2d(np.asarray(spectrum, dtype=np.float64))
        batch = spectrum.shape[0]
        outputs = np.zeros((batch, n_samples, self.config.n_output_points, POINT_DIM))
        with no_grad():
            for sample in range(n_samples):
                normal = Tensor(self._rng.standard_normal((batch, self.config.normal_dim)))
                backward_input = self.inn.assemble_condition(Tensor(spectrum), normal)
                latent = self.inn.inverse(backward_input)
                clouds = self.vae.decode(latent)
                outputs[:, sample] = clouds.numpy()
        return outputs

    def predict_radiation_from_particles(self, point_cloud: np.ndarray) -> np.ndarray:
        """Surrogate forward model: particle dynamics → predicted spectrum encoding."""
        point_cloud = np.asarray(point_cloud, dtype=np.float64)
        if point_cloud.ndim == 2:
            point_cloud = point_cloud[None]
        with no_grad():
            mu, log_var = self.vae.encode(Tensor(point_cloud))
            z = self.vae.reparameterize(mu, log_var, sample=False)
            forward_out = self.inn(z)
            spectrum_prediction, _ = self.inn.split_output(forward_out)
        return spectrum_prediction.numpy()

    def encode_to_latent(self, point_cloud: np.ndarray) -> np.ndarray:
        """Deterministic latent representation (µ) of particle point clouds."""
        point_cloud = np.asarray(point_cloud, dtype=np.float64)
        if point_cloud.ndim == 2:
            point_cloud = point_cloud[None]
        with no_grad():
            mu, _ = self.vae.encode(Tensor(point_cloud))
        return mu.numpy()
