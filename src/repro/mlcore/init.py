"""Weight initialisation."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import RandomState, seeded_rng


def kaiming_uniform(shape: Tuple[int, int], rng: RandomState = None) -> np.ndarray:
    """He uniform initialisation, for ReLU, of a ``(fan_in, fan_out)`` weight."""
    rng = seeded_rng(rng)
    limit = np.sqrt(2.0) * np.sqrt(3.0 / shape[0])
    return rng.uniform(-limit, limit, size=shape)
