"""Steps: the unit of synchronisation between producer and consumer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class Step:
    """One streamed step: a flat ``path -> ndarray`` dict plus attributes.

    The paths are the openPMD record paths of
    :func:`repro.openpmd.backends.iteration_to_arrays`; a step carries no
    object tree, so anything that moves arrays can carry it.
    """

    index: int
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return sum(int(data.nbytes) for data in self.arrays.values())
