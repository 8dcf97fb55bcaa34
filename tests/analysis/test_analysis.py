"""Tests of the scientific-evaluation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (LatentRegimeClassifier, REGION_APPROACHING, REGION_NAMES,
                            REGION_RECEDING, REGION_VORTEX, evaluate_inversion,
                            histogram_distance, label_particles, majority_region,
                            momentum_histogram, peak_momentum,
                            region_momentum_histograms)
from repro.analysis.evaluation import held_out_accuracy
from repro.analysis.histograms import detects_two_populations, mean_momentum
from repro.analysis.regions import FLOW_MOMENTUM_COLUMN, region_fractions
from repro.continual.buffer import TrainingSample
from repro.models import ArtificialScientistModel, small_config


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
        labels = label_particles(positions, momenta, extent, vortex_half_width=0.0)
        approaching = labels == REGION_APPROACHING
        np.testing.assert_array_equal(momenta[approaching, 0] > 0, True)
        receding = labels == REGION_RECEDING
        np.testing.assert_array_equal(momenta[receding, 0] < 0, True)

    def test_vortex_label_near_shear_surfaces(self, rng):
        positions, momenta, extent = self.make_setup(rng)
        labels = label_particles(positions, momenta, extent, vortex_half_width=0.05)
        vortex = labels == REGION_VORTEX
        y = positions[vortex, 1]
        near = (np.abs(y - 0.25) < 0.05) | (np.abs(y - 0.75) < 0.05)
        assert np.all(near)
        # all three regions are populated
        assert set(np.unique(labels)) == {0, 1, 2}

    def test_region_fractions_sum_to_one(self, rng):
        positions, momenta, extent = self.make_setup(rng)
        labels = label_particles(positions, momenta, extent)
        fractions = region_fractions(labels)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert set(fractions) == set(REGION_NAMES.values())

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
        momenta = rng.normal(0.2, 0.01, size=(5000, 3))
        centres, counts = momentum_histogram(momenta, bins=100)
        assert peak_momentum(centres, counts) == pytest.approx(0.2, abs=0.02)
        assert mean_momentum(centres, counts) == pytest.approx(0.2, abs=0.02)

    def test_region_histograms_keys(self, rng):
        momenta = rng.normal(size=(100, 3)) * 0.1
        labels = rng.integers(0, 3, size=100)
        hists = region_momentum_histograms(momenta, labels)
        assert set(hists) <= set(REGION_NAMES.values())
        assert len(hists) == 3

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
        c2, h2 = momentum_histogram(two[:, None], bins=64)
        c1, h1 = momentum_histogram(one[:, None], bins=64)
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
            LatentRegimeClassifier().predict(rng.random((3, 4)))

    def test_label_validation(self, rng):
        with pytest.raises(ValueError):
            LatentRegimeClassifier(n_classes=2).fit(rng.random((10, 3)),
                                                    np.full(10, 5))

    def test_chance_level_on_random_labels(self, rng):
        latents = rng.normal(size=(300, 4))
        labels = rng.integers(0, 3, size=300)
        classifier = LatentRegimeClassifier(n_epochs=50, rng=rng).fit(latents, labels)
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
        config = small_config()
        model = ArtificialScientistModel(config, rng=rng)
        samples = self.make_samples(rng, config)
        report = evaluate_inversion(model, samples, n_posterior_samples=2, rng=rng)
        assert set(report.regions) == {"approaching", "receding", "vortex"}
        rows = report.rows()
        assert len(rows) == 3
        assert {"region", "true_peak", "predicted_peak", "histogram_l1"} <= set(rows[0])
        summary = report.summary()
        assert summary["surrogate_spectrum_mse"] >= 0.0
        assert 0.0 <= summary["latent_classifier_accuracy"] <= 1.0
        assert report.n_evaluation_samples == 9

    def test_true_peaks_reflect_input_distributions(self, rng):
        config = small_config()
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
        config = small_config()
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
        config = small_config()
        model = ArtificialScientistModel(config, rng=rng)

        def predict(spectra, n_samples):
            clouds = np.zeros((len(spectra), n_samples, 8, 6))
            clouds[..., FLOW_MOMENTUM_COLUMN] = np.tile([5.0, 0.1, -3.0, 0.0], 2)
            return clouds

        model.predict_particles_from_radiation = predict
        report = evaluate_inversion(model, self.make_samples(rng, config),
                                    n_posterior_samples=2, rng=rng)
        assert report.clipped_fraction == report.summary()["clipped_fraction"] \
            == 0.5
        assert {row["clipped_fraction"] for row in report.rows()} == {0.5}

    def test_requires_samples(self, rng):
        model = ArtificialScientistModel(small_config(), rng=rng)
        with pytest.raises(ValueError):
            evaluate_inversion(model, [])
