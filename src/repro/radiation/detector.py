"""The synthetic radiation detector: observation directions and frequencies.

The paper's detector is spectrally and angularly resolved: intensity per
direction and frequency (Fig. 1, right).  Directions are unit vectors;
frequencies are angular frequencies, conveniently expressed in units of the
plasma frequency (the x-axis of Fig. 9(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import constants
from repro.utils.validation import check_array, check_positive


def direction_grid(n_theta: int, n_phi: int = 1, axis: Sequence[float] = (1.0, 0.0, 0.0),
                   opening_angle: float = np.pi / 2) -> np.ndarray:
    """Unit observation directions on a cone/fan around ``axis``.

    Parameters
    ----------
    n_theta:
        Number of polar angles in ``[0, opening_angle]``.
    n_phi:
        Number of azimuthal angles (1 keeps all directions in one plane).
    axis:
        Central observation direction.
    opening_angle:
        Maximum polar angle away from ``axis`` [rad].

    Returns
    -------
    Array of shape ``(n_theta * n_phi, 3)`` of unit vectors.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError("n_theta and n_phi must be >= 1")
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    # build an orthonormal frame around the axis
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    thetas = np.linspace(0.0, opening_angle, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    directions = []
    for theta in thetas:
        for phi in phis:
            d = (np.cos(theta) * axis
                 + np.sin(theta) * (np.cos(phi) * e1 + np.sin(phi) * e2))
            directions.append(d / np.linalg.norm(d))
    return np.asarray(directions)


def frequency_grid(n_frequencies: int, omega_max: float, omega_min: Optional[float] = None,
                   spacing: str = "log") -> np.ndarray:
    """Angular-frequency grid.

    Parameters
    ----------
    n_frequencies:
        Number of frequency bins.
    omega_max:
        Largest angular frequency [rad/s].
    omega_min:
        Smallest angular frequency; defaults to ``omega_max / 1000`` for log
        spacing and ``0`` for linear spacing.
    spacing:
        ``"log"`` (default, matching the log-frequency axis of Fig. 9a) or
        ``"linear"``.
    """
    if n_frequencies < 1:
        raise ValueError("n_frequencies must be >= 1")
    check_positive(omega_max, "omega_max")
    if spacing == "log":
        omega_min = omega_max / 1000.0 if omega_min is None else omega_min
        check_positive(omega_min, "omega_min")
        return np.logspace(np.log10(omega_min), np.log10(omega_max), n_frequencies)
    if spacing == "linear":
        omega_min = 0.0 if omega_min is None else omega_min
        return np.linspace(omega_min, omega_max, n_frequencies)
    raise ValueError("spacing must be 'log' or 'linear'")


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
        self.directions = check_array(self.directions, "directions", dtype=np.float64, ndim=2)
        self.frequencies = check_array(self.frequencies, "frequencies",
                                       dtype=np.float64, ndim=1)
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
    def for_khi(cls, density: float, n_directions: int = 8, n_frequencies: int = 64,
                max_omega_in_plasma_units: float = 100.0,
                axis: Sequence[float] = (1.0, 0.0, 0.0)) -> "RadiationDetector":
        """Detector matching the paper's KHI study.

        Frequencies span 0.1 … ``max_omega_in_plasma_units`` plasma
        frequencies on a log axis (the range of Fig. 9a); directions fan out
        around the flow axis so that approaching and receding streams are
        Doppler-distinguishable.
        """
        omega_p = constants.plasma_frequency(density)
        freqs = frequency_grid(n_frequencies, omega_max=max_omega_in_plasma_units * omega_p,
                               omega_min=0.1 * omega_p, spacing="log")
        dirs = direction_grid(n_directions, n_phi=1, axis=axis, opening_angle=np.pi / 3)
        return cls(directions=dirs, frequencies=freqs)
