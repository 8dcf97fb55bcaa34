"""Labelling of KHI plasma regions.

Fig. 9 distinguishes three kinds of sub-volumes:

* undisturbed bulk plasma **approaching** the detector (flow towards +x,
  where the detector sits),
* undisturbed bulk plasma **receding** from the detector,
* the **KHI vortex** (shear-surface) regions, where particles from both
  streams mix and the instability grows.

Particles are labelled individually; sub-volumes get the majority label of
their particles.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.pic.khi import FLOW_AXIS, SHEAR_AXIS
from repro.pic.pusher import wrap_periodic

REGION_APPROACHING = 0
REGION_RECEDING = 1
REGION_VORTEX = 2

#: Column of a streamed point cloud (3 positions, then 3 momenta, see
#: :func:`repro.core.transforms.encode_point_cloud`) that holds the momentum
#: along the flow, towards the detector.
FLOW_MOMENTUM_COLUMN = 3 + FLOW_AXIS

#: Half-width of the vortex band around each shear surface, as a share of
#: the box size along the shear axis.
VORTEX_HALF_WIDTH = 0.10

REGION_NAMES: Dict[int, str] = {
    REGION_APPROACHING: "approaching",
    REGION_RECEDING: "receding",
    REGION_VORTEX: "vortex",
}


def shear_surface_positions(extent_shear: float) -> Tuple[float, float]:
    """The two shear surfaces of the periodic counter-flow profile."""
    return 0.25 * extent_shear, 0.75 * extent_shear


def label_particles(positions: np.ndarray, momenta: np.ndarray,
                    extent: Sequence[float]) -> np.ndarray:
    """Label each particle as approaching / receding / vortex.

    The geometry is the KHI setup's: flow along
    :data:`repro.pic.khi.FLOW_AXIS`, shear along
    :data:`repro.pic.khi.SHEAR_AXIS`.

    Parameters
    ----------
    positions, momenta:
        ``(N, 3)`` arrays (metres / dimensionless ``gamma beta``).
    extent:
        Physical box size.

    Particles within :data:`VORTEX_HALF_WIDTH` of the box size along the
    shear axis from a shear surface are labelled vortex.

    Returns
    -------
    Integer labels of shape ``(N,)``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    momenta = np.asarray(momenta, dtype=np.float64)
    if positions.shape != momenta.shape or positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions and momenta must both have shape (N, 3)")
    extent_shear = float(extent[SHEAR_AXIS])
    vortex_half_width = VORTEX_HALF_WIDTH * extent_shear
    y = wrap_periodic(positions[:, SHEAR_AXIS], extent_shear)
    s1, s2 = shear_surface_positions(extent_shear)
    near_shear = (np.abs(y - s1) < vortex_half_width) | (np.abs(y - s2) < vortex_half_width)

    labels = np.where(momenta[:, FLOW_AXIS] > 0.0, REGION_APPROACHING, REGION_RECEDING)
    labels = np.where(near_shear, REGION_VORTEX, labels)
    return labels.astype(np.int64)


def majority_region(labels: np.ndarray) -> int:
    """Majority label of a sub-volume (vortex wins ties — it is the rarest class)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot compute the majority of zero labels")
    counts = np.bincount(labels, minlength=3)
    # prefer the vortex label on ties so thin shear layers are not washed out
    order = np.array([REGION_VORTEX, REGION_APPROACHING, REGION_RECEDING])
    best = order[np.argmax(counts[order])]
    return int(best)
