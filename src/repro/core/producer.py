"""The producer side: a PIConGPU-style output plugin streaming openPMD data.

Due to the plugin-based structure of PIConGPU, the particle and radiation
input required by the MLapp are provided by distinct output plugins; here a
single plugin prepares *both* records (the per-sub-volume point clouds and
their spectra) and writes them, next to the raw species records, as one
openPMD iteration per streamed :class:`repro.streaming.Step`.  Data never
touches the filesystem unless the series is opened on a
:class:`repro.openpmd.DirectoryStore`.

The ML-sample layout of a step lives here and nowhere else: the three
scalar records below, one row per sub-volume, with each sample's region
streamed as its id in :data:`repro.analysis.regions.REGION_NAMES`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.regions import REGION_NAMES
from repro.continual.buffer import TrainingSample
from repro.core.transforms import RegionPartition, make_training_samples
from repro.openpmd.series import Series
from repro.pic.simulation import PICSimulation, Plugin
from repro.radiation.detector import RadiationDetector
from repro.streaming.step import Step
from repro.utils.rng import RandomState, seeded_rng

POINT_CLOUDS = "particles/ml_samples/point_clouds"
SPECTRA = "particles/ml_samples/spectra"
REGIONS = "particles/ml_samples/regions"

_REGION_IDS: Dict[str, int] = {name: index for index, name in REGION_NAMES.items()}


#: The radiating species whose samples and records are streamed.
SPECIES = "electrons"


class StreamingProducerPlugin(Plugin):
    """Attachable plugin that streams training samples as openPMD iterations."""

    order = 60  # before diagnostics plugins (default order 100)

    def __init__(self, series: Series, detector: RadiationDetector,
                 partition: RegionPartition, n_points: int,
                 sample_interval: int = 1,
                 reduction=None, rng: RandomState = None) -> None:
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.series = series
        self.detector = detector
        self.partition = partition
        self.n_points = int(n_points)
        self.sample_interval = int(sample_interval)
        #: optional :class:`repro.streaming.reduction.ReductionPipeline`
        #: applied to the raw species records before they enter the stream
        #: (the Fig. 3b "reduce close to the producer" option).
        self.reduction = reduction
        self.rng = seeded_rng(rng)
        self._previous_momenta: Optional[np.ndarray] = None
        self.samples_streamed = 0
        self.iterations_streamed = 0
        self.bytes_streamed = 0
        self.bytes_before_reduction = 0

    # -- plugin hooks -------------------------------------------------------- #
    def on_start(self, simulation: PICSimulation) -> None:
        species = simulation.get_species(SPECIES)
        self._previous_momenta = species.momenta.copy()

    def on_step(self, simulation: PICSimulation) -> None:
        species = simulation.get_species(SPECIES)
        if self._previous_momenta is None or \
                self._previous_momenta.shape != species.momenta.shape:
            self._previous_momenta = species.momenta.copy()
            return
        if simulation.step_index % self.sample_interval != 0:
            self._previous_momenta = species.momenta.copy()
            return

        samples = make_training_samples(
            species, self._previous_momenta, self.detector, self.partition,
            n_points=self.n_points, step=simulation.step_index,
            time=simulation.time, dt=simulation.config.dt, rng=self.rng)
        # this step's momenta, which the next push overwrites in place: the
        # streamed momentum records are views of this copy, not of the live
        # array (a queued step must keep its own step's values)
        self._previous_momenta = species.momenta.copy()
        if not samples:
            return
        self._write_iteration(simulation, samples)

    def on_finish(self, simulation: PICSimulation) -> None:
        self.series.close()

    # -- openPMD output --------------------------------------------------------- #
    def _write_iteration(self, simulation: PICSimulation,
                         samples: List[TrainingSample]) -> None:
        # the raw species data the paper streams (positions, momenta,
        # weighting), so that other consumers can attach to the same stream
        # without knowing about the ML sample encoding; an optional
        # reduction pipeline shrinks these records close to the producer
        species = simulation.get_species(SPECIES)
        prefix = f"particles/{SPECIES}"
        raw_records: Dict[str, np.ndarray] = {}
        for axis, name in enumerate(("x", "y", "z")):
            raw_records[f"{prefix}/position/{name}"] = species.positions[:, axis]
            raw_records[f"{prefix}/momentum/{name}"] = self._previous_momenta[:, axis]
        raw_records[f"{prefix}/weighting"] = species.weights
        self.bytes_before_reduction += int(sum(a.nbytes for a in raw_records.values()))
        if self.reduction is not None:
            raw_records = self.reduction.reduce_step(raw_records)

        arrays = {
            POINT_CLOUDS: np.stack([s.point_cloud for s in samples], axis=0),
            SPECTRA: np.stack([s.spectrum for s in samples], axis=0),
            REGIONS: np.array([_REGION_IDS[s.region] for s in samples],
                              dtype=np.float64),
            **raw_records,
        }
        step = Step(simulation.step_index, arrays,
                    {"iteration": simulation.step_index,
                     "time": float(simulation.time),
                     "dt": float(simulation.config.dt), "timeUnitSI": 1.0})
        self.bytes_streamed += step.nbytes
        self.series.close_iteration(step)
        self.samples_streamed += len(samples)
        self.iterations_streamed += 1