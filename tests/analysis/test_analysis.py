"""Tests of the scientific-evaluation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (LatentRegimeClassifier, REGION_APPROACHING, REGION_NAMES,
                            REGION_RECEDING, REGION_VORTEX, evaluate_inversion,
                            histogram_distance, label_particles, majority_region,
                            momentum_histogram, peak_momentum)
from repro.analysis.evaluation import held_out_accuracy
from repro.analysis.histograms import detects_two_populations, mean_momentum
from repro.analysis.regions import FLOW_MOMENTUM_COLUMN
from repro.continual.buffer import TrainingSample
from repro.models import ArtificialScientistModel, ModelConfig


class TestRegionLabels:
    def make_setup(self, rng, n=1000):
        extent = (1.0, 1.0, 1.0)
        positions = rng.uniform(0, 1, size=(n, 3))
        momenta = np.zeros((n, 3))
        inner = (positions[:, 1] > 0.25) & (positions[:, 1] < 0.75)
        momenta[:, 0] = np.where(inner, 0.2, -0.2)
        return positions, momenta, extent

    def test_bulk_labels_follow_flow_direction(self, rng):
        positions, momenta, extent = self.make_setup(rng)
        labels = label_particles(positions, momenta, extent)
        approaching = labels == REGION_APPROACHING
        np.testing.assert_array_equal(momenta[approaching, 0] > 0, True)
        receding = labels == REGION_RECEDING
        np.testing.assert_array_equal(momenta[receding, 0] < 0, True)

    def test_vortex_label_near_shear_surfaces(self, rng):
        positions, momenta, extent = self.make_setup(rng)
        labels = label_particles(positions, momenta, extent)
        vortex = labels == REGION_VORTEX
        y = positions[vortex, 1]
        near = (np.abs(y - 0.25) < 0.1) | (np.abs(y - 0.75) < 0.1)
        assert np.all(near)
        # all three regions are populated
        assert set(np.unique(labels)) == {0, 1, 2}

    def test_region_fractions_sum_to_one(self, rng):
        """Every particle gets exactly one of the named regions."""
        positions, momenta, extent = self.make_setup(rng)
        labels = label_particles(positions, momenta, extent)
        assert labels.shape == (len(positions),)
        assert set(np.unique(labels)) <= set(REGION_NAMES)
        fractions = np.bincount(labels, minlength=len(REGION_NAMES)) / len(labels)
        assert fractions.sum() == pytest.approx(1.0)
        assert np.all(fractions > 0)

    def test_majority_region(self):
        assert majority_region(np.array([0, 0, 1])) == REGION_APPROACHING
        assert majority_region(np.array([2, 2, 0])) == REGION_VORTEX
        # vortex wins ties
        assert majority_region(np.array([0, 2])) == REGION_VORTEX
        with pytest.raises(ValueError):
            majority_region(np.array([]))

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            label_particles(rng.random((5, 2)), rng.random((5, 2)), (1, 1, 1))


class TestHistograms:
    def test_peak_and_mean(self, rng):
        momenta = rng.normal(0.2, 0.01, size=5000)
        centres, counts = momentum_histogram(momenta)
        assert peak_momentum(centres, counts) == pytest.approx(0.2, abs=0.02)
        assert mean_momentum(centres, counts) == pytest.approx(0.2, abs=0.02)

    def test_histogram_distance_bounds(self, rng):
        a = np.histogram(rng.normal(0.2, 0.02, 1000), bins=50, range=(-1, 1))[0]
        b = np.histogram(rng.normal(-0.2, 0.02, 1000), bins=50, range=(-1, 1))[0]
        assert histogram_distance(a, a) == pytest.approx(0.0)
        assert histogram_distance(a, b) == pytest.approx(2.0, abs=0.1)

    def test_histogram_distance_validation(self):
        with pytest.raises(ValueError):
            histogram_distance(np.ones(4), np.ones(5))
        with pytest.raises(ValueError):
            histogram_distance(np.zeros(4), np.ones(4))

    def test_two_population_detection(self, rng):
        two = np.concatenate([rng.normal(0.2, 0.02, 1000), rng.normal(-0.2, 0.02, 1000)])
        one = rng.normal(0.2, 0.02, 2000)
        c2, h2 = momentum_histogram(two)
        c1, h1 = momentum_histogram(one)
        assert detects_two_populations(c2, h2)
        assert not detects_two_populations(c1, h1)

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            peak_momentum(np.array([0.0, 1.0]), np.array([0.0, 0.0]))


class TestLatentClassifier:
    def test_separates_linearly_separable_clusters(self, rng):
        n = 200
        latents = np.concatenate([
            rng.normal(loc=(2.0, 0.0), scale=0.3, size=(n, 2)),
            rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(n, 2)),
            rng.normal(loc=(0.0, 2.5), scale=0.3, size=(n, 2)),
        ])
        labels = np.repeat([0, 1, 2], n)
        classifier = LatentRegimeClassifier(rng=rng).fit(latents, labels)
        assert np.mean(classifier.predict(latents) == labels) > 0.95
        proba = classifier.predict_proba(latents[:5])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            LatentRegimeClassifier(rng).predict(rng.random((3, 4)))

    def test_label_validation(self, rng):
        with pytest.raises(ValueError):
            LatentRegimeClassifier(rng).fit(rng.random((10, 3)),
                                            np.full(10, 5))

    def test_chance_level_on_random_labels(self, rng):
        latents = rng.normal(size=(300, 4))
        labels = rng.integers(0, 3, size=300)
        classifier = LatentRegimeClassifier(rng=rng).fit(latents, labels)
        assert np.mean(classifier.predict(latents) == labels) < 0.6


class TestInversionEvaluation:
    def make_samples(self, rng, config, n_per_region=3):
        samples = []
        for region, u in (("approaching", 0.2), ("receding", -0.2), ("vortex", 0.0)):
            for _ in range(n_per_region):
                cloud = rng.normal(size=(config.n_input_points, 6)) * 0.05
                cloud[:, 3] += u
                spectrum = rng.random(config.spectrum_dim)
                samples.append(TrainingSample(point_cloud=cloud, spectrum=spectrum,
                                              region=region))
        return samples

    def test_report_structure(self, rng):
        config = ModelConfig()
        model = ArtificialScientistModel(config, rng=rng)
        samples = self.make_samples(rng, config)
        report = evaluate_inversion(model, samples, n_posterior_samples=2, rng=rng)
        assert set(report.regions) == {"approaching", "receding", "vortex"}
        rows = report.rows()
        assert len(rows) == 3
        assert {"region", "true_peak", "predicted_peak", "histogram_l1"} <= set(rows[0])
        assert report.surrogate_spectrum_mse >= 0.0
        assert 0.0 <= report.latent_classifier_accuracy <= 1.0
        assert report.majority_share == pytest.approx(1 / 3)
        assert set(report.ratios()) == {
            "histogram_l1.approaching", "histogram_l1.receding",
            "histogram_l1.vortex", "surrogate_spectrum_mse",
            "latent_classifier_accuracy"}
        assert report.n_evaluation_samples == 9

    def test_true_peaks_reflect_input_distributions(self, rng):
        config = ModelConfig()
        model = ArtificialScientistModel(config, rng=rng)
        samples = self.make_samples(rng, config, n_per_region=4)
        report = evaluate_inversion(model, samples, n_posterior_samples=1, rng=rng)
        assert report.regions["approaching"].true_peak == pytest.approx(0.2, abs=0.05)
        assert report.regions["receding"].true_peak == pytest.approx(-0.2, abs=0.05)

    @pytest.mark.parametrize("n_samples", [40, 80])
    def test_classifier_accuracy_on_random_latents_reads_chance(self, rng,
                                                               n_samples):
        """Random latents with random labels hold nothing to learn: scored
        on the samples it was fitted to, the classifier read 1.0 at 40
        samples; held out, it reads near chance (1/3)."""
        config = ModelConfig()
        model = ArtificialScientistModel(config, rng=rng)
        model.encode_to_latent = lambda clouds: rng.normal(size=(len(clouds), 32))
        accuracies = [evaluate_inversion(model, [TrainingSample(
            point_cloud=rng.normal(size=(config.n_input_points, 6)),
            spectrum=rng.random(config.spectrum_dim), region=region)
            for region in rng.choice(sorted(REGION_NAMES.values()), n_samples)],
            n_posterior_samples=1, rng=rng).latent_classifier_accuracy
            for _ in range(5)]
        assert max(accuracies) < 0.6 and np.mean(accuracies) < 0.45

    def test_held_out_accuracy_still_separates_clusters(self, rng):
        labels = np.repeat([0, 1, 2], 10)
        latents = rng.normal(size=(30, 4)) + 10.0 * labels[:, None]
        assert held_out_accuracy(latents, labels, rng) == 1.0

    def test_report_states_the_share_of_momenta_it_clipped(self, rng):
        """Half the predicted momenta lie far outside the histogram range."""
        config = ModelConfig()
        model = ArtificialScientistModel(config, rng=rng)

        def predict(spectra, n_samples):
            clouds = np.zeros((len(spectra), n_samples, 8, 6))
            clouds[..., FLOW_MOMENTUM_COLUMN] = np.tile([5.0, 0.1, -3.0, 0.0], 2)
            return clouds

        model.predict_particles_from_radiation = predict
        report = evaluate_inversion(model, self.make_samples(rng, config),
                                    n_posterior_samples=2, rng=rng)
        assert report.clipped_fraction == 0.5
        assert {row["clipped_fraction"] for row in report.rows()} == {0.5}

    def test_a_model_that_predicts_the_true_clouds_has_l1_ratio_0(self, rng):
        config = ModelConfig()
        model = ArtificialScientistModel(config, rng=rng)
        samples = self.make_samples(rng, config)
        for sample in samples:      # no true momentum outside the histogram
            np.clip(sample.point_cloud, -0.3, 0.3, out=sample.point_cloud)
        clouds = {sample.spectrum.tobytes(): sample.point_cloud
                  for sample in samples}
        model.predict_particles_from_radiation = lambda spectra, n_samples: \
            np.stack([[clouds[spectrum.tobytes()]] * n_samples
                      for spectrum in spectra])
        report = evaluate_inversion(model, samples, n_posterior_samples=2,
                                    rng=rng)
        ratios = report.ratios()
        assert [ratios[f"histogram_l1.{name}"] for name in
                ("approaching", "receding", "vortex")] == [0.0, 0.0, 0.0]
        # the pooled histogram is a constant worth beating
        assert min(ev.constant_histogram_l1
                   for ev in report.regions.values()) > 0.5

    def test_a_surrogate_that_returns_the_mean_spectrum_has_ratio_1(self, rng):
        config = ModelConfig()
        model = ArtificialScientistModel(config, rng=rng)
        samples = self.make_samples(rng, config)
        mean_spectrum = np.mean([sample.spectrum for sample in samples], axis=0)
        model.predict_radiation_from_particles = lambda clouds: \
            np.tile(mean_spectrum, (len(clouds), 1))
        report = evaluate_inversion(model, samples, n_posterior_samples=1,
                                    rng=rng)
        assert report.surrogate_spectrum_mse == report.constant_spectrum_mse > 0
        assert report.ratios()["surrogate_spectrum_mse"] == 1.0

    def test_a_classifier_at_the_majority_share_has_ratio_1(self, rng):
        """Latents that hold nothing: every fold predicts the majority
        region, so the accuracy is its share, 6 of 8."""
        config = ModelConfig()
        model = ArtificialScientistModel(config, rng=rng)
        model.encode_to_latent = lambda clouds: np.zeros((len(clouds), 4))
        samples = [sample for sample in self.make_samples(rng, config, 6)
                   if sample.region != "vortex"][:8]
        report = evaluate_inversion(model, samples, n_posterior_samples=1,
                                    rng=rng)
        assert report.latent_classifier_accuracy == report.majority_share \
            == 0.75
        assert report.ratios()["latent_classifier_accuracy"] == 1.0

    def test_a_one_region_sample_set_has_no_classifier_ratio(self, rng):
        """One region is its own majority and its own pooled histogram:
        there is no constant to beat, so neither gets a ratio."""
        config = ModelConfig()
        model = ArtificialScientistModel(config, rng=rng)
        samples = [sample for sample in self.make_samples(rng, config)
                   if sample.region == "receding"]
        report = evaluate_inversion(model, samples, n_posterior_samples=1,
                                    rng=rng)
        assert report.majority_share == 1.0
        assert report.regions["receding"].constant_histogram_l1 == 0.0
        assert set(report.ratios()) == {"surrogate_spectrum_mse"}

    def test_requires_samples(self, rng):
        model = ArtificialScientistModel(ModelConfig(), rng=rng)
        with pytest.raises(ValueError):
            evaluate_inversion(model, [], rng=rng)
