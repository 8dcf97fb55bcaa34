#!/usr/bin/env python
"""Far-field radiation and the Doppler signature of approaching/receding flows.

The paper highlights that the trained network "learned a fundamental aspect
of special relativity: the Doppler shift, to distinguish between plasma
streams approaching and receding from the detector".  This example shows the
physical origin of that signature directly with the radiation substrate:

* an oscillating charge drifting *towards* the detector radiates at an
  up-shifted frequency,
* the same charge drifting *away* radiates at a down-shifted frequency,
* a KHI snapshot's regions, each spectrum built from one step as the
  producer streams it, do *not* show that ordering: one step's spectrum is
  the spatial form factor of the particles drawn for it (a single
  particle's one-step spectrum is flat in frequency); the single charge's
  shift above shows in a spectrum integrated over 3 000 steps.

Run with::

    python examples/radiation_doppler.py
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.analysis.regions import REGION_NAMES
from repro.core.transforms import RegionPartition, make_training_samples
from repro.pic.khi import KHIConfig, make_khi_simulation
from repro.radiation.detector import RadiationDetector, frequency_grid
from repro.radiation.lienard_wiechert import accumulate_amplitude
from repro.radiation.spectrum import spectrum_from_amplitude


def oscillator_spectrum(drift_beta: float, omega0: float, detector: RadiationDetector,
                        n_steps: int = 3000) -> np.ndarray:
    """Spectrum of a charge oscillating at omega0 while drifting along +x."""
    dt = 2 * np.pi / omega0 / 200.0
    amplitude = None
    for step in range(n_steps):
        t = step * dt
        beta_z = 0.05 * np.cos(omega0 * t)
        beta_dot_z = -0.05 * omega0 * np.sin(omega0 * t)
        position = np.array([[drift_beta * constants.SPEED_OF_LIGHT * t, 0.0, 0.0]])
        amplitude = accumulate_amplitude(
            amplitude, detector, position,
            np.array([[drift_beta, 0.0, beta_z]]),
            np.array([[0.0, 0.0, beta_dot_z]]),
            np.ones(1), time=t, dt=dt)
    return spectrum_from_amplitude(amplitude, constants.ELEMENTARY_CHARGE)


def single_particle_doppler() -> None:
    omega0 = 1.0e14
    detector = RadiationDetector(
        directions=np.array([[1.0, 0.0, 0.0]]),
        frequencies=frequency_grid(81, omega_max=3 * omega0, omega_min=omega0 / 3))
    print("--- single oscillating charge, detector along +x ------------------")
    print(f"{'drift beta':>12} {'peak / omega0':>14} {'expected':>10}")
    for drift in (+0.2, 0.0, -0.2):
        spectrum = oscillator_spectrum(drift, omega0, detector)
        peak = detector.frequencies[np.argmax(spectrum[0])] / omega0
        expected = 1.0 / (1.0 - drift)
        print(f"{drift:>12.2f} {peak:>14.3f} {expected:>10.3f}")


def khi_region_spectra() -> None:
    print("\n--- KHI sub-volumes, one-step spectra --------------------------")
    config = KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=4, seed=11)
    simulation = make_khi_simulation(config)
    electrons = simulation.get_species("electrons")
    previous = electrons.momenta.copy()
    for _ in range(3):
        simulation.step()
    detector = RadiationDetector.for_khi(density=config.density, n_directions=1,
                                         n_frequencies=32)
    partition = RegionPartition(config.grid_config, (1, 4, 1))
    _, spectra, regions = make_training_samples(
        electrons, previous, detector, partition, n_points=128,
        time=simulation.time, dt=simulation.config.dt, rng=np.random.default_rng(0))
    print(f"{'region':>12} {'spectral centroid (bin index)':>32}")
    for spectrum, region in zip(spectra, regions):
        weights = spectrum + 1e-9
        centroid = float(np.sum(np.arange(weights.size) * weights) / weights.sum())
        print(f"{REGION_NAMES[int(region)]:>12} {centroid:>32.2f}")
    print("\nThe centroids differ from region to region, but not by flow "
          "direction: a one-step spectrum is the form factor of the particles "
          "drawn for that step; the single charge's Doppler shift above "
          "shows in a spectrum integrated over 3 000 steps.")


def main() -> None:
    single_particle_doppler()
    khi_region_spectra()


if __name__ == "__main__":
    main()
