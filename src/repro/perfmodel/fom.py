"""PIConGPU figure-of-merit weak scaling (Fig. 4).

The FOM is the weighted sum of particle updates per second (90 %) and cell
updates per second (10 %).  PIConGPU communicates only with next neighbours
(guard-cell exchange) and overlaps that communication with computation, so
the weak-scaling efficiency stays high; the model captures the residual
degradation with a logarithmic term (collective start-up, load imbalance).

Calibration targets (from the paper): the largest Frontier run (36 864
MI250X GPUs) reaches an average FOM of 65.3 TeraUpdates/s; the Summit
baseline reaches 14.7 TeraUpdates/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

#: The FOM weights used in the paper / the Frontier acceptance benchmarks.
PARTICLE_WEIGHT = 0.9
CELL_WEIGHT = 0.1


@dataclass
class FOMScalingModel:
    """Weak-scaling model of the PIConGPU FOM.

    Parameters
    ----------
    per_gpu_particle_rate:
        Macro-particle updates per second of one GPU package.
    per_gpu_cell_rate:
        Cell updates per second of one GPU package.
    scaling_loss_per_decade:
        Relative efficiency lost per factor-10 increase in GPU count
        (communication jitter, load imbalance); PIConGPU's measured weak
        scaling is close to ideal, so this is a small number.
    base_gpus:
        Reference size at which efficiency is defined as 1.
    """

    per_gpu_particle_rate: float = 1.85e9
    per_gpu_cell_rate: float = 2.4e8
    scaling_loss_per_decade: float = 0.015
    base_gpus: int = 24

    # -- model ----------------------------------------------------------- #
    def efficiency(self, n_gpus: int) -> float:
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        decades = max(0.0, np.log10(n_gpus / self.base_gpus))
        return float(max(0.5, 1.0 - self.scaling_loss_per_decade * decades))

    def per_gpu_fom(self) -> float:
        return (PARTICLE_WEIGHT * self.per_gpu_particle_rate
                + CELL_WEIGHT * self.per_gpu_cell_rate)

    def fom(self, n_gpus: int) -> float:
        """Aggregate FOM [updates/s] of a weak-scaled run on ``n_gpus`` GPUs."""
        return n_gpus * self.per_gpu_fom() * self.efficiency(n_gpus)

    # -- paper presets ------------------------------------------------------ #
    @classmethod
    def frontier_calibrated(cls) -> "FOMScalingModel":
        """Calibrated so the full-Frontier run lands at ~65.3 TeraUpdates/s."""
        model = cls()
        target = 65.3e12
        full_gpus = 36_864
        scale = target / model.fom(full_gpus)
        return cls(per_gpu_particle_rate=model.per_gpu_particle_rate * scale,
                   per_gpu_cell_rate=model.per_gpu_cell_rate * scale,
                   scaling_loss_per_decade=model.scaling_loss_per_decade,
                   base_gpus=model.base_gpus)

    @classmethod
    def summit_calibrated(cls) -> "FOMScalingModel":
        """Calibrated so the full-Summit baseline lands at ~14.7 TeraUpdates/s."""
        model = cls(base_gpus=24)
        target = 14.7e12
        full_gpus = 27_648
        scale = target / model.fom(full_gpus)
        return cls(per_gpu_particle_rate=model.per_gpu_particle_rate * scale,
                   per_gpu_cell_rate=model.per_gpu_cell_rate * scale,
                   scaling_loss_per_decade=model.scaling_loss_per_decade,
                   base_gpus=24)

    @staticmethod
    def paper_gpu_counts() -> List[int]:
        """The GPU counts of the Fig. 4 weak-scaling series (24 … 36 864)."""
        counts = [24]
        while counts[-1] * 2 <= 36_864:
            counts.append(counts[-1] * 2)
        if counts[-1] != 36_864:
            counts.append(36_864)
        return counts
