"""Cloud-in-cell (CIC) field gather, the readable oracle.

Every Yee component is interpolated to the particle positions with trilinear
weights evaluated on its own staggered sub-grid, matching how PIConGPU
assigns fields to macro-particles (first-order assignment function).

:func:`gather_fields_reference` does it one component at a time with scalar
indexing.  No run calls it: it is the oracle the simulator's
:func:`repro.pic.kernels.gather_fields` is tested against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.pic.grid import STAGGER, YeeGrid


def _cic_indices_weights(positions: np.ndarray, cell_size: Tuple[float, float, float],
                         shape: Tuple[int, int, int],
                         stagger: Tuple[float, float, float]):
    """Return per-axis lower indices and fractional weights for CIC.

    Parameters
    ----------
    positions:
        ``(N, 3)`` metres.
    cell_size, shape, stagger:
        Grid geometry and component stagger in cell fractions.

    Returns
    -------
    ``(i0, frac)`` with ``i0`` integer arrays ``(N, 3)`` (*unwrapped* — the
    callers apply the periodic ``% shape`` wrap, and the Esirkepov stencil
    needs the raw floor index) and ``frac`` the fractional offsets ``(N, 3)``
    in ``[0, 1)``.
    """
    pos = np.asarray(positions, dtype=np.float64)
    cell = np.asarray(cell_size, dtype=np.float64)
    offset = np.asarray(stagger, dtype=np.float64)
    xi = pos / cell - offset
    i0 = np.floor(xi).astype(np.int64)
    frac = xi - i0
    return i0, frac


def gather_component(field: np.ndarray, positions: np.ndarray,
                     cell_size: Tuple[float, float, float],
                     stagger: Tuple[float, float, float]) -> np.ndarray:
    """Trilinearly interpolate one staggered field component to particles."""
    shape = field.shape
    i0, frac = _cic_indices_weights(positions, cell_size, shape, stagger)
    nx, ny, nz = shape
    out = np.zeros(positions.shape[0], dtype=np.float64)
    wx = (1.0 - frac[:, 0], frac[:, 0])
    wy = (1.0 - frac[:, 1], frac[:, 1])
    wz = (1.0 - frac[:, 2], frac[:, 2])
    ix = (i0[:, 0] % nx, (i0[:, 0] + 1) % nx)
    iy = (i0[:, 1] % ny, (i0[:, 1] + 1) % ny)
    iz = (i0[:, 2] % nz, (i0[:, 2] + 1) % nz)
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                w = wx[di] * wy[dj] * wz[dk]
                out += w * field[ix[di], iy[dj], iz[dk]]
    return out


def gather_fields_reference(grid: YeeGrid, positions: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolate E and B to the particle positions.

    Returns
    -------
    ``(E, B)`` each of shape ``(N, 3)`` in SI units (V/m and T).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    cell = grid.config.cell_size
    e_fields = np.empty((positions.shape[0], 3), dtype=np.float64)
    b_fields = np.empty((positions.shape[0], 3), dtype=np.float64)
    for axis, name in enumerate(("Ex", "Ey", "Ez")):
        e_fields[:, axis] = gather_component(grid.component(name), positions,
                                             cell, STAGGER[name])
    for axis, name in enumerate(("Bx", "By", "Bz")):
        b_fields[:, axis] = gather_component(grid.component(name), positions,
                                             cell, STAGGER[name])
    return e_fields, b_fields
