"""Measuring the KHI growth rate from field energy and radiation.

Pausch et al. (2017) — reference [24] of the paper — show that the *linear
phase* of the relativistic KHI can be identified, and its growth rate
measured, from the emitted radiation instead of from the (unobservable)
magnetic field energy.  This module provides both measurements for the
reproduction's simulations:

* :func:`fit_exponential_growth` fits ``A * exp(2 Gamma t)`` to an energy
  time series on a chosen window (energies grow with twice the field
  amplitude growth rate),
* :func:`growth_rate_from_energy_history` applies it to the
  :class:`repro.pic.diagnostics.EnergyHistory` plugin output,
* :func:`growth_rate_from_radiation_history` applies it to a per-step
  radiated-power series (the paper's observable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class GrowthRateFit:
    """Result of an exponential growth fit."""

    rate: float                 #: growth rate Gamma of the field amplitude [1/s]
    energy_rate: float          #: growth rate of the energy (= 2 Gamma) [1/s]
    amplitude: float            #: fitted prefactor
    window: Tuple[int, int]     #: index window used for the fit
    r_squared: float            #: goodness of fit of log(energy) vs t


def _linear_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares fit y = a + b x; returns (a, b, r^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    b, a = np.polyfit(x, y, 1)
    prediction = a + b * x
    ss_res = float(np.sum((y - prediction) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return a, b, r2


def fit_exponential_growth(times: Sequence[float], energies: Sequence[float],
                           window: Optional[Tuple[int, int]] = None,
                           floor: float = 0.0) -> GrowthRateFit:
    """Fit exponential growth to an energy time series.

    Parameters
    ----------
    times, energies:
        Time [s] and energy [J] samples (same length).
    window:
        Index range ``(start, stop)`` of the linear-growth phase; defaults to
        the middle half of the series, skipping the initial transient and
        the saturated tail.
    floor:
        Energies at or below this value are excluded (log of zero).
    """
    times = np.asarray(times, dtype=np.float64)
    energies = np.asarray(energies, dtype=np.float64)
    if times.shape != energies.shape or times.ndim != 1:
        raise ValueError("times and energies must be 1D arrays of equal length")
    if len(times) < 4:
        raise ValueError("need at least four samples to fit a growth rate")
    if window is None:
        start = len(times) // 4
        stop = max(start + 3, (3 * len(times)) // 4)
        window = (start, min(stop, len(times)))
    start, stop = int(window[0]), int(window[1])
    if not 0 <= start < stop <= len(times) or stop - start < 3:
        raise ValueError("fit window must contain at least three samples")
    t = times[start:stop]
    e = energies[start:stop]
    valid = e > floor
    if valid.sum() < 3:
        raise ValueError("not enough positive energy samples in the fit window")
    a, b, r2 = _linear_fit(t[valid], np.log(e[valid]))
    return GrowthRateFit(rate=b / 2.0, energy_rate=b, amplitude=float(np.exp(a)),
                         window=(start, stop), r_squared=r2)


def growth_rate_from_energy_history(history, dt: float,
                                    window: Optional[Tuple[int, int]] = None
                                    ) -> GrowthRateFit:
    """Growth rate from an :class:`repro.pic.diagnostics.EnergyHistory` plugin.

    Parameters
    ----------
    history:
        The plugin instance after a run (uses its magnetic-energy series —
        the KHI's defining signal).
    dt:
        Simulation time step [s].
    """
    steps = np.asarray(history.steps, dtype=np.float64)
    magnetic = np.asarray(history.magnetic, dtype=np.float64)
    return fit_exponential_growth(steps * dt, magnetic, window=window)


def growth_rate_from_radiation_history(times: Sequence[float],
                                       radiated_power: Sequence[float],
                                       window: Optional[Tuple[int, int]] = None
                                       ) -> GrowthRateFit:
    """Growth rate measured from the radiation signal (the paper's observable).

    During the linear phase the radiated power grows with the same
    exponential rate as the field energy, which is what makes the growth
    rate remotely measurable (Pausch et al. 2017).
    """
    return fit_exponential_growth(times, radiated_power, window=window)


#: how straight log-energy must be over a window to count as exponential growth
LINEAR_PHASE_R_SQUARED = 0.995


def identify_linear_phase(energies: Sequence[float]) -> Tuple[int, int]:
    """Locate the linear-growth window ``(start, stop)`` of an energy series.

    The window is the longest run of positive samples over which log-energy
    rises on a straight line (:data:`LINEAR_PHASE_R_SQUARED`).  A start-up
    transient — the jump from zero field and its fast first steps — is
    short and bends away from the growth that follows, so it is never
    chosen, and neither is a saturated plateau, which does not rise.  A
    series without such a run gets its middle half.
    """
    energies = np.asarray(energies, dtype=np.float64)
    n = len(energies)
    if n < 5:
        raise ValueError("need at least five samples")
    x = np.arange(n, dtype=np.float64)
    y = np.log(np.where(energies > 0, energies, 1.0))
    # prefix sums: a sum over [start, stop) is one difference
    sx, sy, sxx, sxy, syy, non_positive = (
        np.concatenate([[0.0], np.cumsum(values)])
        for values in (x, y, x * x, x * y, y * y, energies <= 0))
    best = (n // 4, max(n // 4 + 3, (3 * n) // 4))
    longest = 0
    for start in range(n - 2):
        stop = np.arange(start + 3, n + 1)
        k = stop - start
        cx, cy = sx[stop] - sx[start], sy[stop] - sy[start]
        vxx = k * (sxx[stop] - sxx[start]) - cx * cx
        vxy = k * (sxy[stop] - sxy[start]) - cx * cy
        vyy = k * (syy[stop] - syy[start]) - cy * cy
        with np.errstate(divide="ignore", invalid="ignore"):
            straight = vxy * vxy >= LINEAR_PHASE_R_SQUARED * vxx * vyy
        fits = np.flatnonzero(straight & (vxy > 0) & (vyy > 0)
                              & (non_positive[stop] == non_positive[start]))
        if len(fits) and k[fits[-1]] > longest:
            longest = int(k[fits[-1]])
            best = (start, start + longest)
    return best
