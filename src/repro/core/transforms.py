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

from typing import Tuple

import numpy as np

from repro.analysis.regions import label_particles, majority_region
from repro.pic.grid import GridConfig
from repro.pic.particles import ParticleSpecies
from repro.pic.pusher import wrap_periodic
from repro.radiation.detector import RadiationDetector
from repro.radiation.lienard_wiechert import radiation_amplitude_step
from repro.radiation.spectrum import normalize_log_spectrum, spectrum_from_amplitude


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

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners ``(n_regions, 3)`` of the sub-volumes, in
        flat-id order (the order :meth:`region_of` counts in)."""
        index = np.indices(self.region_counts).reshape(3, -1).T
        return self._sizes * index, self._sizes * (index + 1)

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
                       lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Fixed-size per-particle features: positions normalised to ``[-1, 1]``
    within the sub-volume ``[lower, upper]``, then raw momenta.  Leading axes
    broadcast: ``(k, n, 3)`` particles in ``(k, 1, 3)`` bounds are k clouds."""
    positions = np.asarray(positions, dtype=np.float64)
    momenta = np.asarray(momenta, dtype=np.float64)
    centre = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    normalised = (positions - centre) / np.maximum(half, 1e-300)
    return np.concatenate([normalised, momenta], axis=-1)


def decode_point_cloud(point_cloud: np.ndarray, lower: np.ndarray,
                       upper: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_point_cloud` (positions in metres, momenta raw)."""
    point_cloud = np.asarray(point_cloud, dtype=np.float64)
    positions = point_cloud[..., :3] * (0.5 * (upper - lower)) + 0.5 * (lower + upper)
    return positions, point_cloud[..., 3:]


def encode_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Flattened, log-scaled, [0, 1]-normalised encoding of a
    ``(..., directions, frequencies)`` spectrum: ``(..., spectrum_dim)``."""
    normalised = normalize_log_spectrum(spectrum)
    *batch, n_directions, n_frequencies = normalised.shape
    return normalised.reshape(*batch, n_directions * n_frequencies)


#: Least particles a sub-volume needs to become a training sample.
MIN_PARTICLES_PER_REGION = 8


def _beta(momenta: np.ndarray) -> np.ndarray:
    """Normalised velocities ``u / gamma`` of ``(..., 3)`` momenta ``u``."""
    gamma = np.sqrt(1.0 + np.einsum("...i,...i->...", momenta, momenta))
    return momenta / gamma[..., None]


def make_training_samples(species: ParticleSpecies, previous_momenta: np.ndarray,
                          detector: RadiationDetector, partition: RegionPartition,
                          n_points: int, time: float, dt: float,
                          rng: np.random.Generator
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training samples of the current step, one per populated sub-volume.

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

    Returns
    -------
    The ``k`` samples as the three arrays a step streams: point clouds
    ``(k, n_points, 6)``, encoded spectra ``(k, spectrum_dim)`` and each
    sample's region as its float id in
    :data:`repro.analysis.regions.REGION_NAMES` ``(k,)``.
    """
    previous_momenta = np.asarray(previous_momenta, dtype=np.float64)
    if previous_momenta.shape != species.momenta.shape:
        raise ValueError("previous_momenta must match the species' momenta shape")
    if dt <= 0:
        raise ValueError("dt must be positive")

    labels = label_particles(species.positions, species.momenta,
                             partition.grid_config.extent)
    region_ids = partition.region_of(species.positions)

    # region by region only what orders the random stream: the particles
    # drawn and the majority label; the rest runs on all k samples at once
    lower, upper = partition.bounds()
    kept, chosen, majority = [], [], []
    for flat_id in range(len(lower)):
        indices = np.flatnonzero(region_ids == flat_id)
        if indices.size < MIN_PARTICLES_PER_REGION:
            continue
        kept.append(flat_id)
        chosen.append(rng.choice(indices, size=n_points,
                                 replace=indices.size < n_points))
        majority.append(majority_region(labels[indices]))
    chosen = np.array(chosen, dtype=np.int64).reshape(len(kept), n_points)

    # only the chosen rows radiate, so beta and its rate of change are
    # worked out for them alone (element-wise: same values as all-N)
    positions, momenta = species.positions[chosen], species.momenta[chosen]
    beta_now = _beta(momenta)
    beta_dot = (beta_now - _beta(previous_momenta[chosen])) / dt
    clouds = encode_point_cloud(positions, momenta, lower[kept, None],
                                upper[kept, None])
    amplitude = radiation_amplitude_step(detector, positions, beta_now, beta_dot,
                                         species.weights[chosen], time=time, dt=dt)
    spectra = encode_spectrum(spectrum_from_amplitude(amplitude, species.charge))
    return clouds, spectra, np.array(majority, dtype=np.float64)
