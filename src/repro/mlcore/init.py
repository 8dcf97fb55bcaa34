"""Weight initialisation."""

from __future__ import annotations

from typing import Tuple

import numpy as np



def kaiming_uniform(shape: Tuple[int, int],
                    rng: np.random.Generator) -> np.ndarray:
    """He uniform initialisation, for ReLU, of a ``(fan_in, fan_out)`` weight."""
    limit = np.sqrt(2.0) * np.sqrt(3.0 / shape[0])
    return rng.uniform(-limit, limit, size=shape)
