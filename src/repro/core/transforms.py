"""Transforms from simulation data to ML training samples.

Section III-A: the collected phase-space and spectral data must be prepared
"for an ML model by finding suitable encodings for spectral and phase space
data".  In this reproduction:

* the simulation box is partitioned into sub-volumes
  (:class:`RegionPartition`); each sub-volume yields one training sample
  per streamed step — the "local phase-space dynamics" the inversion
  targets,
* the particle encoding is a fixed-size point cloud: positions normalised
  to ``[-1, 1]`` within the sub-volume plus raw momenta
  (:func:`encode_point_cloud`),
* the spectral encoding is the log-scaled, normalised far-field spectrum of
  the sub-volume's particles as seen by the detector
  (:func:`encode_spectrum`), computed with the Liénard-Wiechert kernel of
  :mod:`repro.radiation` (what PIConGPU's in-situ radiation plugin does),
* :func:`make_training_samples` does all of it for one time step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.regions import REGION_NAMES, label_particles, majority_region
from repro.continual.buffer import TrainingSample
from repro.pic.grid import GridConfig
from repro.pic.particles import ParticleSpecies
from repro.pic.pusher import wrap_periodic
from repro.radiation.detector import RadiationDetector
from repro.radiation.lienard_wiechert import radiation_amplitude_step
from repro.radiation.spectrum import normalize_log_spectrum, spectrum_from_amplitude


@dataclass(frozen=True)
class Region:
    """One sub-volume of the simulation box."""

    index: Tuple[int, int, int]
    lower: Tuple[float, float, float]
    upper: Tuple[float, float, float]

    @property
    def centre(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lower) + np.asarray(self.upper))

    @property
    def size(self) -> np.ndarray:
        return np.asarray(self.upper) - np.asarray(self.lower)


class RegionPartition:
    """Partition the box into a regular grid of sub-volumes."""

    def __init__(self, grid_config: GridConfig,
                 region_counts: Tuple[int, int, int] = (1, 4, 1)) -> None:
        if any(int(c) < 1 for c in region_counts):
            raise ValueError("region_counts entries must be >= 1")
        self.grid_config = grid_config
        self.region_counts = tuple(int(c) for c in region_counts)
        extent = np.asarray(grid_config.extent)
        self._sizes = extent / np.asarray(self.region_counts)

    def regions(self) -> List[Region]:
        regions = []
        cx, cy, cz = self.region_counts
        for ix in range(cx):
            for iy in range(cy):
                for iz in range(cz):
                    lower = self._sizes * np.array([ix, iy, iz])
                    upper = self._sizes * np.array([ix + 1, iy + 1, iz + 1])
                    regions.append(Region(index=(ix, iy, iz), lower=tuple(lower),
                                          upper=tuple(upper)))
        return regions

    def region_of(self, positions: np.ndarray) -> np.ndarray:
        """Flat region id of each particle position, shape ``(N,)``; only the
        axes cut into more than one region are wrapped, a column at a time."""
        positions = np.asarray(positions, dtype=np.float64)
        extent = self.grid_config.extent
        ids = np.zeros(positions.shape[0], dtype=np.int64)
        for axis, count in enumerate(self.region_counts):
            ids *= count
            if count > 1:
                column = wrap_periodic(positions[:, axis], extent[axis])
                column /= self._sizes[axis]
                ids += np.minimum(np.floor(column).astype(np.int64), count - 1)
        return ids


def encode_point_cloud(positions: np.ndarray, momenta: np.ndarray,
                       region: Region) -> np.ndarray:
    """Fixed-size per-particle features: normalised positions + momenta."""
    positions = np.asarray(positions, dtype=np.float64)
    momenta = np.asarray(momenta, dtype=np.float64)
    centre = region.centre
    half = 0.5 * region.size
    normalised = (positions - centre) / np.maximum(half, 1e-300)
    return np.concatenate([normalised, momenta], axis=1)


def decode_point_cloud(point_cloud: np.ndarray, region: Region
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_point_cloud` (positions in metres, momenta raw)."""
    point_cloud = np.asarray(point_cloud, dtype=np.float64)
    centre = region.centre
    half = 0.5 * region.size
    positions = point_cloud[:, :3] * half + centre
    momenta = point_cloud[:, 3:]
    return positions, momenta


def encode_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Flattened, log-scaled, [0, 1]-normalised spectrum encoding."""
    return normalize_log_spectrum(np.asarray(spectrum)).reshape(-1)


def region_spectrum(detector: RadiationDetector, positions: np.ndarray,
                    beta: np.ndarray, beta_dot: np.ndarray, weights: np.ndarray,
                    charge: float, time: float, dt: float) -> np.ndarray:
    """Far-field spectrum of one sub-volume's particles for one time step."""
    amplitude = radiation_amplitude_step(detector, positions, beta, beta_dot, weights,
                                         time=time, dt=dt)
    return spectrum_from_amplitude(amplitude, charge)


#: Least particles a sub-volume needs to become a training sample.
MIN_PARTICLES_PER_REGION = 8


def _beta(momenta: np.ndarray) -> np.ndarray:
    """Normalised velocities ``u / gamma`` of ``(n, 3)`` momenta ``u``."""
    gamma = np.sqrt(1.0 + np.einsum("ij,ij->i", momenta, momenta))
    return momenta / gamma[:, None]


def make_training_samples(species: ParticleSpecies, previous_momenta: np.ndarray,
                          detector: RadiationDetector, partition: RegionPartition,
                          n_points: int, step: int, time: float, dt: float,
                          rng: np.random.Generator) -> List[TrainingSample]:
    """Build one training sample per populated sub-volume for the current step.

    Parameters
    ----------
    species:
        The radiating species (electrons) *after* the momentum update.
    previous_momenta:
        The species' momenta before the update (used for the acceleration
        entering the Liénard-Wiechert kernel).
    detector, partition, n_points:
        Detector geometry, sub-volume partition and point-cloud size.

    Regions with fewer than :data:`MIN_PARTICLES_PER_REGION` particles are
    skipped (they cannot represent the local dynamics).
    """
    previous_momenta = np.asarray(previous_momenta, dtype=np.float64)
    if previous_momenta.shape != species.momenta.shape:
        raise ValueError("previous_momenta must match the species' momenta shape")
    if dt <= 0:
        raise ValueError("dt must be positive")

    extent = partition.grid_config.extent
    labels = label_particles(species.positions, species.momenta, extent)
    region_ids = partition.region_of(species.positions)
    regions = partition.regions()

    samples: List[TrainingSample] = []
    for flat_id, region in enumerate(regions):
        mask = region_ids == flat_id
        count = int(mask.sum())
        if count < MIN_PARTICLES_PER_REGION:
            continue
        indices = np.flatnonzero(mask)
        chosen = rng.choice(indices, size=n_points, replace=count < n_points)

        # only the chosen rows radiate, so beta and its rate of change are
        # worked out for them alone (element-wise: same values as all-N)
        positions, momenta = species.positions[chosen], species.momenta[chosen]
        beta_now = _beta(momenta)
        beta_dot = (beta_now - _beta(previous_momenta[chosen])) / dt
        cloud = encode_point_cloud(positions, momenta, region)
        spectrum = region_spectrum(detector, positions, beta_now, beta_dot,
                                   species.weights[chosen], species.charge,
                                   time=time, dt=dt)
        region_label = REGION_NAMES[majority_region(labels[indices])]
        samples.append(TrainingSample(
            point_cloud=cloud,
            spectrum=encode_spectrum(spectrum),
            step=step,
            region=region_label,
            metadata={"region_index": region.index, "n_particles": count},
        ))
    return samples
