"""Figure-of-merit (FOM) accounting.

The paper's Fig. 4 reports PIConGPU's FOM, the weighted sum of the total
number of particle updates per second (90 %) and the number of cell updates
per second (10 %), for weak-scaling runs from 24 GPUs to 36 864 GPUs on
Frontier.  This module provides the same metric for our simulator and for
the analytic machine model in :mod:`repro.perfmodel.fom`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The FOM weights used in the paper / the Frontier acceptance benchmarks.
PARTICLE_WEIGHT = 0.9
CELL_WEIGHT = 0.1


@dataclass(frozen=True)
class FigureOfMerit:
    """Result of a FOM measurement.

    Attributes
    ----------
    particle_updates_per_second:
        Macro-particle updates per wall-clock second.
    cell_updates_per_second:
        Grid-cell updates per wall-clock second.
    value:
        The weighted FOM ``0.9 * particle + 0.1 * cell`` (updates/s).
    """

    particle_updates_per_second: float
    cell_updates_per_second: float


def figure_of_merit(n_particles: int, n_cells: int, n_steps: int,
                    wall_time: float) -> FigureOfMerit:
    """Compute the FOM of a run.

    Parameters
    ----------
    n_particles:
        Total number of macro-particles updated each step.
    n_cells:
        Total number of grid cells updated each step.
    n_steps:
        Number of time steps covered by ``wall_time``.
    wall_time:
        Elapsed wall-clock time in seconds.
    """
    if wall_time <= 0:
        raise ValueError("wall_time must be positive")
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    return FigureOfMerit(
        particle_updates_per_second=n_particles * n_steps / wall_time,
        cell_updates_per_second=n_cells * n_steps / wall_time,
    )
