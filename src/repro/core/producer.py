"""The producer side: a PIConGPU-style output plugin streaming openPMD data.

Due to the plugin-based structure of PIConGPU, the particle and radiation
input required by the MLapp are provided by distinct output plugins; here a
single plugin prepares *both* records (the per-sub-volume point clouds and
their spectra) and writes them as one openPMD iteration per streamed step.
Data never touches the filesystem unless a file-based backend is configured
explicitly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.continual.buffer import TrainingSample
from repro.core.config import WorkflowConfig
from repro.core.transforms import RegionPartition, make_training_samples
from repro.openpmd.series import Access, Series
from repro.pic.simulation import PICSimulation, Plugin
from repro.radiation.detector import RadiationDetector
from repro.utils.rng import RandomState, seeded_rng


class StreamingProducerPlugin(Plugin):
    """Attachable plugin that streams training samples as openPMD iterations."""

    order = 60  # before diagnostics plugins (default order 100)

    def __init__(self, series: Series, detector: RadiationDetector,
                 partition: RegionPartition, n_points: int,
                 species_name: str = "electrons", sample_interval: int = 1,
                 reduction=None, rng: RandomState = None) -> None:
        if series.access is not Access.CREATE:
            raise ValueError("the producer needs a series opened with CREATE access")
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.series = series
        self.detector = detector
        self.partition = partition
        self.n_points = int(n_points)
        self.species_name = species_name
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
        species = simulation.get_species(self.species_name)
        self._previous_momenta = species.momenta.copy()

    def on_step(self, simulation: PICSimulation) -> None:
        species = simulation.get_species(self.species_name)
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
        self._previous_momenta = species.momenta.copy()
        if not samples:
            return
        self._write_iteration(simulation, samples)

    def on_finish(self, simulation: PICSimulation) -> None:
        self.series.close()

    # -- openPMD output --------------------------------------------------------- #
    def _write_iteration(self, simulation: PICSimulation,
                         samples: List[TrainingSample]) -> None:
        iteration = self.series.write_iteration(simulation.step_index)
        iteration.set_time(simulation.time, simulation.config.dt)

        clouds = np.stack([s.point_cloud for s in samples], axis=0)
        spectra = np.stack([s.spectrum for s in samples], axis=0)
        regions = np.array([_region_to_int(s.region) for s in samples], dtype=np.float64)

        ml_records = iteration.get_particles("ml_samples")
        ml_records["point_clouds"].store_scalar(clouds)
        ml_records["spectra"].store_scalar(spectra)
        ml_records["regions"].store_scalar(regions)

        # Also expose the raw species data the paper streams (positions,
        # momenta, weighting) so that other consumers can attach to the same
        # stream without knowing about the ML sample encoding.  An optional
        # reduction pipeline shrinks these records close to the producer.
        species = simulation.get_species(self.species_name)
        raw_records: Dict[str, np.ndarray] = {}
        for axis, name in enumerate(("x", "y", "z")):
            raw_records[f"particles/{self.species_name}/position/{name}"] = \
                species.positions[:, axis]
            raw_records[f"particles/{self.species_name}/momentum/{name}"] = \
                species.momenta[:, axis]
        raw_records[f"particles/{self.species_name}/weighting"] = species.weights
        self.bytes_before_reduction += int(sum(a.nbytes for a in raw_records.values()))
        if self.reduction is not None:
            raw_records = self.reduction.reduce_step(raw_records)

        raw = iteration.get_particles(self.species_name)
        for axis, name in enumerate(("x", "y", "z")):
            raw["position"][name].store(
                raw_records[f"particles/{self.species_name}/position/{name}"])
            raw["momentum"][name].store(
                raw_records[f"particles/{self.species_name}/momentum/{name}"])
        raw["weighting"].store_scalar(
            raw_records[f"particles/{self.species_name}/weighting"])

        self.bytes_streamed += iteration.nbytes
        self.series.close_iteration(simulation.step_index)
        self.samples_streamed += len(samples)
        self.iterations_streamed += 1


_REGION_TO_INT: Dict[str, int] = {"approaching": 0, "receding": 1, "vortex": 2, "": 0,
                                  "bulk": 0}


def _region_to_int(region: str) -> int:
    return _REGION_TO_INT.get(region, 0)


def int_to_region(value: int) -> str:
    for name, idx in _REGION_TO_INT.items():
        if idx == int(value) and name:
            return name
    return "approaching"
