"""Turning accumulated far-field amplitudes into spectra."""

from __future__ import annotations

import numpy as np

from repro.radiation.lienard_wiechert import spectral_prefactor


def spectrum_from_amplitude(amplitude: np.ndarray, charge: float) -> np.ndarray:
    """Spectral energy density ``d^2 I / dOmega domega`` from the amplitude.

    Parameters
    ----------
    amplitude:
        Complex array ``(..., n_directions, n_frequencies, 3)`` as accumulated
        by :func:`repro.radiation.lienard_wiechert.accumulate_amplitude`;
        leading axes batch independent amplitudes.
    charge:
        Charge of one real particle [C] (the macro-particle weights are
        already folded into the amplitude).

    Returns
    -------
    Real array ``(..., n_directions, n_frequencies)`` in J·s/sr.
    """
    amplitude = np.asarray(amplitude)
    if amplitude.ndim < 3 or amplitude.shape[-1] != 3:
        raise ValueError("amplitude must have shape (..., directions, frequencies, 3)")
    power = np.sum(np.abs(amplitude) ** 2, axis=-1)
    return spectral_prefactor(charge) * power


#: Least intensity :func:`normalize_log_spectrum` takes the log of.
SPECTRUM_FLOOR = 1e-30


def normalize_log_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Log-scale and normalise a spectrum for use as an ML input.

    The observed intensities span many orders of magnitude (Fig. 9a); the
    MLapp feeds ``log10`` intensities, floored at :data:`SPECTRUM_FLOOR`,
    scaled to ``[0, 1]`` per sample to the INN.  A sample is the
    ``(directions, frequencies)`` spectrum of the last two axes; a flat one
    normalises to zeros.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    logged = np.log10(np.maximum(spectrum, SPECTRUM_FLOOR))
    lo = logged.min(axis=(-2, -1), keepdims=True)
    span = logged.max(axis=(-2, -1), keepdims=True) - lo
    return np.divide(logged - lo, span, out=np.zeros_like(logged),
                     where=~(span < 1e-12))
