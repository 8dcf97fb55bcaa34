"""The synthetic radiation detector: observation directions and frequencies.

The paper's detector is spectrally and angularly resolved: intensity per
direction and frequency (Fig. 1, right).  Directions are unit vectors;
frequencies are angular frequencies, conveniently expressed in units of the
plasma frequency (the x-axis of Fig. 9(a)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.utils.validation import check_array, check_positive


#: The central observation direction (the flow axis), the largest polar
#: angle away from it [rad], and the top of the KHI detector's frequency
#: range in plasma frequencies (the range of Fig. 9a).
DETECTOR_AXIS = (1.0, 0.0, 0.0)
OPENING_ANGLE = np.pi / 3
MAX_OMEGA_IN_PLASMA_UNITS = 100.0


def direction_grid(n_theta: int) -> np.ndarray:
    """Unit observation directions fanning out from :data:`DETECTOR_AXIS`
    in one plane.

    Parameters
    ----------
    n_theta:
        Number of polar angles in ``[0, OPENING_ANGLE]``.

    Returns
    -------
    Array of shape ``(n_theta, 3)`` of unit vectors.
    """
    if n_theta < 1:
        raise ValueError("n_theta must be >= 1")
    axis = np.asarray(DETECTOR_AXIS, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    # the direction in the fan's plane normal to the axis
    e1 = np.cross(axis, np.array([0.0, 0.0, 1.0]))
    e1 /= np.linalg.norm(e1)
    directions = []
    for theta in np.linspace(0.0, OPENING_ANGLE, n_theta):
        d = np.cos(theta) * axis + np.sin(theta) * e1
        directions.append(d / np.linalg.norm(d))
    return np.asarray(directions)


def frequency_grid(n_frequencies: int, omega_max: float,
                   omega_min: float) -> np.ndarray:
    """Log-spaced angular-frequency grid (the log-frequency axis of Fig. 9a).

    Parameters
    ----------
    n_frequencies:
        Number of frequency bins.
    omega_max:
        Largest angular frequency [rad/s].
    omega_min:
        Smallest angular frequency [rad/s].
    """
    if n_frequencies < 1:
        raise ValueError("n_frequencies must be >= 1")
    check_positive(omega_max, "omega_max")
    check_positive(omega_min, "omega_min")
    return np.logspace(np.log10(omega_min), np.log10(omega_max), n_frequencies)


@dataclass
class RadiationDetector:
    """Bundle of observation directions and angular frequencies.

    Attributes
    ----------
    directions:
        ``(n_directions, 3)`` unit vectors pointing from the plasma towards
        the detector.
    frequencies:
        ``(n_frequencies,)`` angular frequencies [rad/s].
    """

    directions: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        self.directions = check_array(self.directions, "directions", ndim=2)
        self.frequencies = check_array(self.frequencies, "frequencies", ndim=1)
        if self.directions.shape[1] != 3:
            raise ValueError("directions must have shape (n, 3)")
        norms = np.linalg.norm(self.directions, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-8):
            raise ValueError("directions must be unit vectors")
        if np.any(self.frequencies < 0):
            raise ValueError("frequencies must be non-negative")

    @property
    def n_directions(self) -> int:
        return int(self.directions.shape[0])

    @property
    def n_frequencies(self) -> int:
        return int(self.frequencies.shape[0])

    @classmethod
    def for_khi(cls, density: float, n_directions: int = 8,
                n_frequencies: int = 64) -> "RadiationDetector":
        """Detector matching the paper's KHI study.

        Frequencies span 0.1 … :data:`MAX_OMEGA_IN_PLASMA_UNITS` plasma
        frequencies on a log axis; directions fan out around the flow axis
        so that approaching and receding streams are Doppler-distinguishable.
        """
        omega_p = constants.plasma_frequency(density)
        freqs = frequency_grid(n_frequencies,
                               omega_max=MAX_OMEGA_IN_PLASMA_UNITS * omega_p,
                               omega_min=0.1 * omega_p)
        dirs = direction_grid(n_directions)
        return cls(directions=dirs, frequencies=freqs)
