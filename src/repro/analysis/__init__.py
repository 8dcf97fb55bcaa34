"""Scientific evaluation of the trained model (Section V-B / Fig. 9).

* :mod:`repro.analysis.regions` — labelling of plasma regions (bulk
  approaching the detector, bulk receding, KHI vortex / shear region),
* :mod:`repro.analysis.histograms` — charge-weighted momentum histograms
  and their comparison metrics,
* :mod:`repro.analysis.classifier` — a simple (multinomial logistic)
  classifier on the latent space, quantifying that the latent partitions
  into physical regimes,
* :mod:`repro.analysis.evaluation` — the end-to-end inversion report
  comparing ground truth and ML prediction per region.
"""

from repro.analysis.regions import (REGION_APPROACHING, REGION_NAMES, REGION_RECEDING,
                                    REGION_VORTEX, label_particles, majority_region)
from repro.analysis.histograms import (histogram_distance, momentum_histogram,
                                       peak_momentum)
from repro.analysis.classifier import LatentRegimeClassifier
from repro.analysis.evaluation import InversionReport, RegionEvaluation, evaluate_inversion
from repro.analysis.growth import (GrowthRateFit, fit_exponential_growth,
                                   growth_rate_from_energy_history,
                                   growth_rate_from_radiation_history,
                                   identify_linear_phase)

__all__ = [
    "GrowthRateFit",
    "fit_exponential_growth",
    "growth_rate_from_energy_history",
    "growth_rate_from_radiation_history",
    "identify_linear_phase",
    "REGION_APPROACHING",
    "REGION_RECEDING",
    "REGION_VORTEX",
    "REGION_NAMES",
    "label_particles",
    "majority_region",
    "momentum_histogram",
    "histogram_distance",
    "peak_momentum",
    "LatentRegimeClassifier",
    "InversionReport",
    "RegionEvaluation",
    "evaluate_inversion",
]
