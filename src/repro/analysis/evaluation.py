"""End-to-end evaluation of the inversion (the quantitative side of Fig. 9).

Given a trained :class:`repro.models.ArtificialScientistModel` and a set of
evaluation samples (sub-volume point clouds with their observed spectra and
region labels), the evaluation

1. inverts each spectrum back to particle point clouds (INN backward +
   decoder),
2. compares the predicted momentum distribution with the ground truth per
   region (peak/mean momentum, histogram distance, detection of the two
   vortex populations),
3. runs the surrogate direction (particles → spectrum) and reports its MSE,
4. fits the latent regime classifier and reports its accuracy on samples
   it was not fitted to (:func:`held_out_accuracy`),
5. scores a spectrum-blind constant beside each (:meth:`InversionReport.ratios`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.classifier import LatentRegimeClassifier
from repro.analysis.histograms import (MOMENTUM_RANGE, detects_two_populations,
                                       histogram_distance, mean_momentum,
                                       momentum_histogram, peak_momentum)
from repro.analysis.regions import FLOW_MOMENTUM_COLUMN, REGION_NAMES
from repro.continual.buffer import TrainingSample
from repro.models.model import ArtificialScientistModel

#: Region name -> integer label (inverse of REGION_NAMES).
_REGION_IDS = {name: idx for idx, name in REGION_NAMES.items()}

#: folds of the classifier's cross-validation
CLASSIFIER_FOLDS = 5


@dataclass
class RegionEvaluation:
    """Ground-truth vs prediction comparison for one region."""

    region: str
    n_samples: int
    true_peak: float
    predicted_peak: float
    true_mean: float
    predicted_mean: float
    histogram_l1: float
    #: L1 of the pooled histogram of every region's true momenta
    constant_histogram_l1: float
    two_populations_true: bool
    two_populations_predicted: bool
    #: share of the predicted momenta clipped onto the histogram range
    clipped_fraction: float

    @property
    def peak_error(self) -> float:
        return abs(self.predicted_peak - self.true_peak)


@dataclass
class InversionReport:
    """Full evaluation across regions plus global metrics."""

    regions: Dict[str, RegionEvaluation]
    surrogate_spectrum_mse: float
    constant_spectrum_mse: float
    latent_classifier_accuracy: float
    majority_share: float
    #: share of all predicted momenta clipped onto the histogram range (an
    #: L1 near 2.0 with this near 1 reads "out of range", not "unlearned")
    clipped_fraction: float

    def rows(self) -> List[Dict[str, object]]:
        """Tabular view (one row per region) for printing/EXPERIMENTS.md."""
        rows = []
        for name, ev in sorted(self.regions.items()):
            rows.append({
                "region": name,
                "n_samples": ev.n_samples,
                "true_peak": round(ev.true_peak, 4),
                "predicted_peak": round(ev.predicted_peak, 4),
                "peak_error": round(ev.peak_error, 4),
                "true_mean": round(ev.true_mean, 4),
                "predicted_mean": round(ev.predicted_mean, 4),
                "histogram_l1": round(ev.histogram_l1, 4),
                "constant_histogram_l1": round(ev.constant_histogram_l1, 4),
                "two_populations_true": ev.two_populations_true,
                "two_populations_predicted": ev.two_populations_predicted,
                "clipped_fraction": round(ev.clipped_fraction, 4),
            })
        return rows

    def ratios(self) -> Dict[str, float]:
        """Each metric's error over its constant's (1 - accuracy for the
        classifier), below 1 where the model beats it; none where the
        constant is exact (one region), as there is nothing to beat."""
        pairs = {f"histogram_l1.{name}": (ev.histogram_l1, ev.constant_histogram_l1)
                 for name, ev in sorted(self.regions.items())}
        pairs.update(surrogate_spectrum_mse=(self.surrogate_spectrum_mse,
                                             self.constant_spectrum_mse),
                     latent_classifier_accuracy=(1.0 - self.latent_classifier_accuracy,
                                                 1.0 - self.majority_share))
        return {name: model / constant
                for name, (model, constant) in pairs.items() if constant > 0}


def _momentum_from_cloud(cloud: np.ndarray) -> np.ndarray:
    """Extract the detector-direction momentum column from (…, 6) point clouds."""
    return np.asarray(cloud)[..., FLOW_MOMENTUM_COLUMN]


def held_out_accuracy(latents: np.ndarray, labels: np.ndarray,
                      rng: np.random.Generator) -> float:
    """The latent regime classifier's accuracy on samples it was not fitted
    to (on its own, it reads 1.0 on random labels at 40 samples): every
    sample is scored once, in :data:`CLASSIFIER_FOLDS` interleaved folds."""
    latents, labels = np.asarray(latents), np.asarray(labels)
    folds = np.arange(len(labels)) % min(CLASSIFIER_FOLDS, len(labels))
    correct = 0
    for fold in range(folds.max() + 1):
        scored = folds == fold
        classifier = LatentRegimeClassifier(rng=rng)
        classifier.fit(latents[~scored], labels[~scored])
        correct += int(np.sum(classifier.predict(latents[scored])
                              == labels[scored]))
    return correct / len(labels)


def evaluate_inversion(model: ArtificialScientistModel,
                       samples: Sequence[TrainingSample],
                       n_posterior_samples: int = 4, *,
                       rng: np.random.Generator) -> InversionReport:
    """Evaluate the trained model on held-out samples.

    Parameters
    ----------
    model:
        The trained VAE + INN.
    samples:
        Evaluation samples with ``region`` labels set (as produced by
        :func:`repro.core.transforms.make_training_samples`).
    n_posterior_samples:
        Posterior draws per spectrum for the inversion.
    """
    if not samples:
        raise ValueError("need at least one evaluation sample")

    # group samples by region
    by_region: Dict[str, List[TrainingSample]] = {}
    for sample in samples:
        by_region.setdefault(sample.region or "bulk", []).append(sample)

    region_evaluations: Dict[str, RegionEvaluation] = {}
    n_clipped = n_predicted = 0
    # the constants: the pooled histogram of all regions, the mean spectrum
    _, pooled_hist = momentum_histogram(np.concatenate(
        [_momentum_from_cloud(s.point_cloud) for s in samples]))
    mean_spectrum = np.mean([s.spectrum for s in samples], axis=0)
    surrogate_errors: List[float] = []
    constant_errors: List[float] = []       # the mean spectrum's
    latents: List[np.ndarray] = []
    labels: List[int] = []

    for region, region_samples in by_region.items():
        true_momenta = np.concatenate(
            [_momentum_from_cloud(s.point_cloud) for s in region_samples])
        spectra = np.stack([s.spectrum for s in region_samples], axis=0)

        predicted_clouds = model.predict_particles_from_radiation(
            spectra, n_samples=n_posterior_samples)
        predicted_momenta = _momentum_from_cloud(predicted_clouds).reshape(-1)

        # An untrained / partially trained decoder can produce momenta outside
        # the physical range; clip them onto the histogram range so the
        # comparison stays well defined without coarsening the binning.
        low, high = MOMENTUM_RANGE
        span = high - low
        predicted_clipped = np.clip(predicted_momenta, low + 1e-6 * span,
                                    high - 1e-6 * span)
        clipped = int(np.sum(predicted_clipped != predicted_momenta))
        n_clipped += clipped
        n_predicted += predicted_momenta.size

        true_centres, true_hist = momentum_histogram(true_momenta)
        pred_centres, pred_hist = momentum_histogram(predicted_clipped)

        # surrogate: particles -> spectrum
        clouds = np.stack([s.point_cloud for s in region_samples], axis=0)
        predicted_spectra = model.predict_radiation_from_particles(clouds)
        surrogate_errors.append(float(np.mean((predicted_spectra - spectra) ** 2)))
        constant_errors.append(float(np.mean((mean_spectrum - spectra) ** 2)))

        # latent space for the regime classifier
        z = model.encode_to_latent(clouds)
        latents.append(z)
        labels.extend([_REGION_IDS.get(region, 0)] * len(region_samples))

        region_evaluations[region] = RegionEvaluation(
            region=region,
            n_samples=len(region_samples),
            true_peak=peak_momentum(true_centres, true_hist),
            predicted_peak=peak_momentum(pred_centres, pred_hist),
            true_mean=mean_momentum(true_centres, true_hist),
            predicted_mean=mean_momentum(pred_centres, pred_hist),
            histogram_l1=histogram_distance(true_hist, pred_hist),
            constant_histogram_l1=histogram_distance(true_hist, pooled_hist),
            two_populations_true=detects_two_populations(true_centres, true_hist),
            two_populations_predicted=detects_two_populations(pred_centres, pred_hist),
            clipped_fraction=clipped / predicted_momenta.size,
        )

    # latent classifier accuracy (only meaningful with more than one class)
    latent_matrix = np.concatenate(latents, axis=0)
    label_array = np.asarray(labels)
    accuracy = held_out_accuracy(latent_matrix, label_array, rng) \
        if len(set(labels)) > 1 else 1.0

    return InversionReport(regions=region_evaluations,
                           surrogate_spectrum_mse=float(np.mean(surrogate_errors)),
                           constant_spectrum_mse=float(np.mean(constant_errors)),
                           latent_classifier_accuracy=accuracy,
                           majority_share=max(np.bincount(labels)) / len(labels),
                           clipped_fraction=n_clipped / n_predicted)
