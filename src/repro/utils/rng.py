"""Deterministic random-number handling.

Every stochastic component in the library (particle loading, weight
initialisation, experience-replay sampling, data planes with jitter) accepts
an explicit :class:`numpy.random.Generator`.  This module centralises how
those generators are created so that workflows are reproducible end to end
and so that simulated "ranks" receive statistically independent streams.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

#: Type accepted wherever a random source is expected.
RandomState = Union[None, int, np.random.Generator]


def seeded_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like object.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an integer seed, or an existing
        generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """Create ``count`` independent generators derived from the integer
    ``seed`` (a campaign's: one per resolved run).

    Uses :class:`numpy.random.SeedSequence` spawning so the streams are
    statistically independent.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_seed(seed: Optional[int], *salt: int) -> int:
    """Derive a new integer seed from a base seed and integer salt values."""
    base = 0 if seed is None else int(seed)
    mixed = np.random.SeedSequence([base, *[int(s) for s in salt]])
    return int(mixed.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))
