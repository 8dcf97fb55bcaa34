"""Tests of the VAE + INN architecture."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mlcore.tensor import Tensor
from repro.models import (ArtificialScientistModel, CombinedLoss, GlowCouplingBlock,
                          InvertibleNetwork, LossWeights, ModelConfig,
                          PointCloudDecoder, PointNetEncoder,
                          VariationalAutoEncoder, paper_config)
from repro.models.config import POINT_DIM


CFG = ModelConfig()


def random_cloud(rng, batch=2, config=CFG):
    return rng.normal(size=(batch, config.n_input_points, POINT_DIM))


def random_spectrum(rng, batch=2, config=CFG):
    return rng.random((batch, config.spectrum_dim))


class TestModelConfig:
    def test_paper_config_matches_section_iv_c(self):
        cfg = paper_config()
        assert cfg.n_input_points == 30_000
        assert cfg.encoder_channels == (16, 32, 64, 128, 256, 608)
        assert cfg.latent_dim == 544
        assert cfg.decoder_grid == (4, 4, 4)
        assert cfg.decoder_channels == (16, 8, 6)
        assert cfg.n_output_points == 4096
        assert cfg.inn_blocks == 4
        assert cfg.inn_hidden == (272, 256, 544)
        # millions of parameters, yet the float64 gradients fit on one 64 GB GCD
        n_params = ArtificialScientistModel(cfg, rng=np.random.default_rng(0)).num_parameters()
        assert 1e6 < n_params < 64e9 / 8

    def test_output_points_small_config(self):
        assert CFG.n_output_points == 2 * 2 * 2 * 4 ** 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(latent_dim=33)
        with pytest.raises(ValueError):
            ModelConfig(spectrum_dim=64, latent_dim=32)
        with pytest.raises(ValueError):
            ModelConfig(decoder_channels=(16, 8, 5))

    def test_normal_dim(self):
        assert CFG.normal_dim == CFG.latent_dim - CFG.spectrum_dim


class TestEncoder:
    def test_output_shapes(self, rng):
        encoder = PointNetEncoder(CFG, rng=rng)
        mu, log_var = encoder(Tensor(random_cloud(rng)))
        assert mu.shape == (2, CFG.latent_dim)
        assert log_var.shape == (2, CFG.latent_dim)

    def test_permutation_invariance(self, rng):
        """The encoder must be invariant to transpositions of the particles."""
        encoder = PointNetEncoder(CFG, rng=rng)
        cloud = random_cloud(rng, batch=1)
        perm = rng.permutation(CFG.n_input_points)
        mu1, _ = encoder(Tensor(cloud))
        mu2, _ = encoder(Tensor(cloud[:, perm]))
        np.testing.assert_allclose(mu1.numpy(), mu2.numpy(), atol=1e-12)

    def test_rejects_wrong_feature_dim(self, rng):
        encoder = PointNetEncoder(CFG, rng=rng)
        with pytest.raises(ValueError):
            encoder(Tensor(rng.normal(size=(2, 16, 5))))

    def test_log_var_clipped(self, rng):
        encoder = PointNetEncoder(CFG, rng=rng)
        _, log_var = encoder(Tensor(random_cloud(rng) * 100))
        assert np.all(log_var.numpy() <= 10.0) and np.all(log_var.numpy() >= -10.0)


class TestDecoder:
    def test_output_shape(self, rng):
        decoder = PointCloudDecoder(CFG, rng=rng)
        out = decoder(Tensor(rng.normal(size=(3, CFG.latent_dim))))
        assert out.shape == (3, CFG.n_output_points, POINT_DIM)

    def test_rejects_wrong_latent(self, rng):
        decoder = PointCloudDecoder(CFG, rng=rng)
        with pytest.raises(ValueError):
            decoder(Tensor(rng.normal(size=(3, CFG.latent_dim + 1))))


class TestVAE:
    def test_forward_shapes(self, rng):
        vae = VariationalAutoEncoder(CFG, rng=rng)
        recon, mu, log_var, z = vae(Tensor(random_cloud(rng)))
        assert recon.shape == (2, CFG.n_output_points, POINT_DIM)
        assert z.shape == (2, CFG.latent_dim)

    def test_eval_mode_is_deterministic(self, rng):
        vae = VariationalAutoEncoder(CFG, rng=rng)
        vae.eval()
        cloud = Tensor(random_cloud(rng, batch=1))
        _, _, _, z1 = vae(cloud)
        _, _, _, z2 = vae(cloud)
        np.testing.assert_allclose(z1.numpy(), z2.numpy())

    def test_train_mode_samples(self, rng):
        vae = VariationalAutoEncoder(CFG, rng=rng)
        vae.train()
        cloud = Tensor(random_cloud(rng, batch=1))
        _, _, _, z1 = vae(cloud)
        _, _, _, z2 = vae(cloud)
        assert not np.allclose(z1.numpy(), z2.numpy())


class TestINN:
    def test_coupling_block_invertible(self, rng):
        block = GlowCouplingBlock(dim=16, hidden=(24,), rng=rng)
        x = Tensor(rng.normal(size=(5, 16)))
        y = block(x)
        x_back = block.inverse(y)
        np.testing.assert_allclose(x_back.numpy(), x.numpy(), atol=1e-9)

    def test_coupling_block_changes_input(self, rng):
        block = GlowCouplingBlock(dim=16, hidden=(24,), rng=rng)
        x = rng.normal(size=(5, 16))
        assert not np.allclose(block(Tensor(x)).numpy(), x)

    def test_coupling_block_validation(self, rng):
        with pytest.raises(ValueError):
            GlowCouplingBlock(dim=15, rng=rng)

    def test_full_network_invertible(self, rng):
        inn = InvertibleNetwork(CFG, rng=rng)
        z = Tensor(rng.normal(size=(4, CFG.latent_dim)))
        y = inn(z)
        z_back = inn.inverse(y)
        np.testing.assert_allclose(z_back.numpy(), z.numpy(), rtol=1e-5, atol=1e-5)

    def test_information_volume_constant(self, rng):
        inn = InvertibleNetwork(CFG, rng=rng)
        z = Tensor(rng.normal(size=(4, CFG.latent_dim)))
        assert inn(z).shape == z.shape

    def test_split_and_assemble(self, rng):
        inn = InvertibleNetwork(CFG, rng=rng)
        y = Tensor(rng.normal(size=(3, CFG.latent_dim)))
        spectrum, normal = inn.split_output(y)
        assert spectrum.shape == (3, CFG.spectrum_dim)
        assert normal.shape == (3, CFG.normal_dim)
        reassembled = inn.assemble_condition(spectrum, normal)
        np.testing.assert_allclose(reassembled.numpy(), y.numpy())

    def test_assemble_validation(self, rng):
        inn = InvertibleNetwork(CFG, rng=rng)
        with pytest.raises(ValueError):
            inn.assemble_condition(Tensor(rng.normal(size=(3, CFG.spectrum_dim + 1))),
                                   Tensor(rng.normal(size=(3, CFG.normal_dim))))


class TestFullModel:
    def test_forward_produces_all_outputs(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        output = model(Tensor(random_cloud(rng)), Tensor(random_spectrum(rng)))
        assert output.reconstruction.shape == (2, CFG.n_output_points, POINT_DIM)
        assert output.spectrum_prediction.shape == (2, CFG.spectrum_dim)
        assert output.normal_prediction.shape == (2, CFG.normal_dim)
        assert output.latent_backward.shape == (2, CFG.latent_dim)

    def test_spectrum_shape_validated(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        with pytest.raises(ValueError):
            model(Tensor(random_cloud(rng)), Tensor(rng.random((2, CFG.spectrum_dim + 2))))

    def test_parameter_groups_disjoint_and_complete(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        vae_ids = {id(p) for p in model.vae_parameters()}
        inn_ids = {id(p) for p in model.inn_parameters()}
        all_ids = {id(p) for p in model.parameters()}
        assert vae_ids.isdisjoint(inn_ids)
        assert vae_ids | inn_ids == all_ids

    def test_predict_particles_from_radiation(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        spectrum = rng.random(CFG.spectrum_dim)
        clouds = model.predict_particles_from_radiation(spectrum, n_samples=3)
        assert clouds.shape == (1, 3, CFG.n_output_points, POINT_DIM)
        # the ill-posed problem: different normal draws give different posteriors
        assert not np.allclose(clouds[0, 0], clouds[0, 1])

    def test_predict_radiation_from_particles(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        spectrum = model.predict_radiation_from_particles(random_cloud(rng, batch=1)[0])
        assert spectrum.shape == (1, CFG.spectrum_dim)

    def test_encode_to_latent(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        z = model.encode_to_latent(random_cloud(rng, batch=3))
        assert z.shape == (3, CFG.latent_dim)

    def test_gradients_reach_both_blocks(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        loss = CombinedLoss()
        clouds, spectra = Tensor(random_cloud(rng)), Tensor(random_spectrum(rng))
        total = loss(model(clouds, spectra), clouds, spectra)
        total.backward()
        assert total.item() > 0
        assert any(p.grad is not None and np.any(p.grad != 0)
                   for p in model.vae_parameters())
        assert any(p.grad is not None and np.any(p.grad != 0)
                   for p in model.inn_parameters())


class TestCombinedLoss:
    def test_weights_default_to_equation_1(self):
        w = LossWeights()
        assert (w.chamfer, w.kl, w.mse, w.mmd_latent, w.mmd_normal) == \
            (1.0, 0.001, 0.3, 40.0, 0.03)

    def test_terms_recorded(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        loss = CombinedLoss()
        clouds, spectra = Tensor(random_cloud(rng)), Tensor(random_spectrum(rng))
        total = loss(model(clouds, spectra), clouds, spectra)
        assert set(loss.last_terms) == {"chamfer", "kl", "mse", "mmd_latent",
                                        "mmd_normal", "total"}
        assert loss.last_terms["total"] == pytest.approx(total.item())

    def test_total_is_weighted_sum(self, rng):
        model = ArtificialScientistModel(CFG, rng=rng)
        loss = CombinedLoss()
        clouds, spectra = Tensor(random_cloud(rng)), Tensor(random_spectrum(rng))
        loss(model(clouds, spectra), clouds, spectra)
        t = loss.last_terms
        w = loss.weights
        expected = (w.chamfer * t["chamfer"] + w.kl * t["kl"] + w.mse * t["mse"]
                    + w.mmd_latent * t["mmd_latent"] + w.mmd_normal * t["mmd_normal"])
        assert t["total"] == pytest.approx(expected, rel=1e-9)
