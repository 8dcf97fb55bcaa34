"""Tests of the far-field radiation diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.radiation.detector import RadiationDetector, direction_grid, frequency_grid
from repro.radiation.lienard_wiechert import accumulate_amplitude
from repro.radiation.spectrum import (normalize_log_spectrum, spectrum_from_amplitude,
                                      total_radiated_energy)


def oscillating_charge_spectrum(omega0: float, drift_beta: float, detector: RadiationDetector,
                                n_steps: int = 4000, amplitude_beta: float = 0.05):
    """Accumulate the spectrum of a charge oscillating along z at ``omega0``
    while drifting along +x with ``drift_beta`` (towards direction (1,0,0))."""
    dt = 2 * np.pi / omega0 / 200.0
    total = None
    gamma_drift = 1.0 / np.sqrt(1.0 - drift_beta ** 2)
    for step in range(n_steps):
        t = step * dt
        beta_z = amplitude_beta * np.cos(omega0 * t)
        beta_dot_z = -amplitude_beta * omega0 * np.sin(omega0 * t)
        position = np.array([[drift_beta * constants.SPEED_OF_LIGHT * t, 0.0,
                              amplitude_beta * constants.SPEED_OF_LIGHT / omega0
                              * np.sin(omega0 * t)]])
        beta = np.array([[drift_beta, 0.0, beta_z]])
        beta_dot = np.array([[0.0, 0.0, beta_dot_z]])
        total = accumulate_amplitude(total, detector, position, beta, beta_dot,
                                     np.ones(1), time=t, dt=dt)
    return spectrum_from_amplitude(total, constants.ELEMENTARY_CHARGE)


class TestDetector:
    def test_direction_grid_unit_vectors(self):
        dirs = direction_grid(5, n_phi=4, axis=(0.0, 1.0, 0.0))
        assert dirs.shape == (20, 3)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_frequency_grid_log_and_linear(self):
        log = frequency_grid(10, omega_max=1e15, spacing="log")
        lin = frequency_grid(10, omega_max=1e15, spacing="linear")
        assert log[0] > 0 and log[-1] == pytest.approx(1e15)
        assert lin[0] == 0.0 and lin[-1] == pytest.approx(1e15)
        assert np.all(np.diff(log) > 0) and np.all(np.diff(lin) > 0)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            RadiationDetector(directions=np.array([[2.0, 0.0, 0.0]]),
                              frequencies=np.array([1.0]))
        with pytest.raises(ValueError):
            RadiationDetector(directions=np.array([[1.0, 0.0, 0.0]]),
                              frequencies=np.array([-1.0]))

    def test_for_khi_factory(self):
        det = RadiationDetector.for_khi(density=1e20, n_directions=4, n_frequencies=16)
        assert det.shape == (4, 16)
        in_plasma_units = det.frequencies_in_plasma_units(1e20)
        assert in_plasma_units[0] == pytest.approx(0.1, rel=1e-6)
        assert in_plasma_units[-1] == pytest.approx(100.0, rel=1e-6)


class TestLienardWiechert:
    def test_no_acceleration_no_radiation(self):
        det = RadiationDetector(directions=np.array([[1.0, 0.0, 0.0]]),
                                frequencies=np.array([1e14, 1e15]))
        total = accumulate_amplitude(None, det, np.zeros((3, 3)),
                                     np.full((3, 3), 0.1), np.zeros((3, 3)),
                                     np.ones(3), time=0.0, dt=1e-15)
        assert np.allclose(total, 0.0)

    def test_dipole_spectrum_peaks_at_oscillation_frequency(self):
        omega0 = 1.0e14
        det = RadiationDetector(
            directions=np.array([[1.0, 0.0, 0.0]]),
            frequencies=frequency_grid(41, omega_max=3 * omega0, omega_min=omega0 / 3,
                                       spacing="log"))
        spectrum = oscillating_charge_spectrum(omega0, drift_beta=0.0, detector=det)
        peak_omega = det.frequencies[np.argmax(spectrum[0])]
        assert peak_omega == pytest.approx(omega0, rel=0.1)

    def test_no_radiation_along_acceleration_axis(self):
        """Dipole radiation vanishes along the acceleration direction."""
        omega0 = 1.0e14
        det = RadiationDetector(
            directions=np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
            frequencies=np.array([omega0]))
        spectrum = oscillating_charge_spectrum(omega0, drift_beta=0.0, detector=det,
                                               n_steps=2000)
        along, perpendicular = spectrum[0, 0], spectrum[1, 0]
        assert along < 1e-3 * perpendicular

    def test_doppler_shift_towards_detector(self):
        """An emitter approaching the detector radiates at an up-shifted
        frequency — the effect the paper's network learns (Section V-B)."""
        omega0 = 1.0e14
        drift = 0.2
        doppler = 1.0 / (1.0 - drift)           # observed frequency shift
        det = RadiationDetector(
            directions=np.array([[1.0, 0.0, 0.0]]),
            frequencies=frequency_grid(61, omega_max=3 * omega0, omega_min=omega0 / 3,
                                       spacing="log"))
        approaching = oscillating_charge_spectrum(omega0, drift_beta=drift, detector=det)
        receding = oscillating_charge_spectrum(omega0, drift_beta=-drift, detector=det)
        omega_peak_approaching = det.frequencies[np.argmax(approaching[0])]
        omega_peak_receding = det.frequencies[np.argmax(receding[0])]
        assert omega_peak_approaching == pytest.approx(omega0 * doppler, rel=0.12)
        assert omega_peak_receding == pytest.approx(omega0 / (1.0 + drift), rel=0.12)
        assert omega_peak_approaching > omega_peak_receding

    def test_weights_scale_coherent_power_quadratically(self):
        omega0 = 1.0e14
        det = RadiationDetector(directions=np.array([[1.0, 0.0, 0.0]]),
                                frequencies=np.array([omega0]))
        def run(weight):
            total = None
            dt = 1e-16
            for step in range(200):
                t = step * dt
                beta = np.array([[0.0, 0.0, 0.05 * np.cos(omega0 * t)]])
                beta_dot = np.array([[0.0, 0.0, -0.05 * omega0 * np.sin(omega0 * t)]])
                total = accumulate_amplitude(total, det, np.zeros((1, 3)), beta, beta_dot,
                                             np.array([weight]), time=t, dt=dt)
            return spectrum_from_amplitude(total, constants.ELEMENTARY_CHARGE)[0, 0]
        assert run(10.0) == pytest.approx(100.0 * run(1.0), rel=1e-9)


class TestSpectrumHelpers:
    def test_spectrum_shape_validation(self):
        with pytest.raises(ValueError):
            spectrum_from_amplitude(np.zeros((3, 4)), 1.0)

    def test_total_energy_positive(self, rng):
        det = RadiationDetector.for_khi(density=1e20, n_directions=3, n_frequencies=8)
        spectrum = rng.random(det.shape)
        assert total_radiated_energy(spectrum, det) > 0

    def test_normalize_log_spectrum_range(self, rng):
        spectrum = 10.0 ** rng.uniform(-20, 2, size=(4, 16))
        normalised = normalize_log_spectrum(spectrum)
        assert normalised.min() == pytest.approx(0.0)
        assert normalised.max() == pytest.approx(1.0)

    def test_normalize_constant_spectrum(self):
        out = normalize_log_spectrum(np.full((2, 2), 5.0))
        np.testing.assert_allclose(out, 0.0)

