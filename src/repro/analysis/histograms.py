"""Momentum histograms and comparison metrics (the panels of Fig. 9 b/c)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Bins of a momentum histogram and the ``gamma beta`` range they span.
MOMENTUM_BINS = 48
MOMENTUM_RANGE = (-0.35, 0.35)
#: Least separation of the two peaks, and least height of each relative to
#: the highest bin, for :func:`detects_two_populations`.
MINIMUM_SEPARATION = 0.1
PROMINENCE = 0.2


def momentum_histogram(momenta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of one momentum component over :data:`MOMENTUM_RANGE`.

    Parameters
    ----------
    momenta:
        ``(N,)`` array of ``gamma beta`` "in the direction of the detector"
        (the component plotted in Fig. 9).

    Returns
    -------
    ``(bin_centres, counts)``.
    """
    values = np.asarray(momenta, dtype=np.float64)
    hist, edges = np.histogram(values, bins=MOMENTUM_BINS, range=MOMENTUM_RANGE)
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


def detects_two_populations(centres: np.ndarray, counts: np.ndarray) -> bool:
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
    return (peak_pos >= PROMINENCE and peak_neg >= PROMINENCE
            and (centre_pos - centre_neg) >= MINIMUM_SEPARATION)
