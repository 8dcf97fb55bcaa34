"""Momentum histograms and comparison metrics (the panels of Fig. 9 b/c)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def momentum_histogram(momenta: np.ndarray, weights: Optional[np.ndarray] = None,
                       bins: int = 64, momentum_range: Tuple[float, float] = (-0.35, 0.35),
                       axis: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Charge-weighted histogram of one momentum component.

    Parameters
    ----------
    momenta:
        ``(N, 3)`` (or ``(N,)``) array of ``gamma beta``.
    weights:
        Macro-particle weights (uniform if omitted).
    axis:
        Momentum component — 0 is the component "in the direction of the
        detector" plotted in Fig. 9.

    Returns
    -------
    ``(bin_centres, counts)``.
    """
    momenta = np.asarray(momenta, dtype=np.float64)
    values = momenta[:, axis] if momenta.ndim == 2 else momenta
    if weights is None:
        weights = np.ones_like(values)
    hist, edges = np.histogram(values, bins=bins, range=momentum_range, weights=weights)
    centres = 0.5 * (edges[:-1] + edges[1:])
    return centres, hist


def peak_momentum(centres: np.ndarray, counts: np.ndarray) -> float:
    """Momentum at the histogram maximum."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0 or counts.sum() == 0:
        raise ValueError("histogram is empty")
    return float(np.asarray(centres)[np.argmax(counts)])


def mean_momentum(centres: np.ndarray, counts: np.ndarray) -> float:
    """Weighted mean momentum of a histogram."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("histogram is empty")
    return float(np.sum(np.asarray(centres) * counts) / total)


def histogram_distance(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """Normalised L1 distance between two histograms (0 identical, 2 disjoint)."""
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("histograms must have the same binning")
    a_sum, b_sum = a.sum(), b.sum()
    if a_sum == 0 or b_sum == 0:
        raise ValueError("histograms must be non-empty")
    return float(np.abs(a / a_sum - b / b_sum).sum())


def detects_two_populations(centres: np.ndarray, counts: np.ndarray,
                            minimum_separation: float = 0.1,
                            prominence: float = 0.2) -> bool:
    """Heuristic check whether a histogram shows two distinct peaks.

    Used to verify the paper's qualitative claim that the ML reconstruction
    of the vortex region "consistently predicts these two distinct particle
    populations".
    """
    counts = np.asarray(counts, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    if counts.sum() == 0:
        return False
    normalised = counts / counts.max()
    positive = centres > 0
    negative = centres < 0
    if not np.any(positive) or not np.any(negative):
        return False
    peak_pos = normalised[positive].max()
    peak_neg = normalised[negative].max()
    centre_pos = centres[positive][np.argmax(normalised[positive])]
    centre_neg = centres[negative][np.argmax(normalised[negative])]
    return (peak_pos >= prominence and peak_neg >= prominence
            and (centre_pos - centre_neg) >= minimum_separation)
