"""Charge and current deposition (particle → grid scatter), the readable
oracles.

* :func:`deposit_charge_cic_reference` — CIC scatter of ``q w`` onto the
  node-centred charge density.
* :func:`deposit_current_esirkepov_reference` — the first-order Esirkepov
  scheme used by PIConGPU, which satisfies the discrete continuity equation
  ``(rho^{n+1} - rho^n)/dt + div J = 0`` to machine precision.

Both scatter through ``np.add.at`` (the current on a full 4-node stencil).
No run calls them: they are the oracles the simulator's kernels
:func:`repro.pic.kernels.deposit_charge_cic` and
:func:`repro.pic.kernels.deposit_current_esirkepov` are tested against.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.pic.grid import STAGGER, YeeGrid
from repro.pic.interpolation import _cic_indices_weights


def _hat_weights(xi: np.ndarray, base: np.ndarray) -> np.ndarray:
    """First-order (hat-function) shape weights on a four-node stencil.

    Parameters
    ----------
    xi:
        Normalised particle coordinates along one axis, shape ``(N,)``.
    base:
        Integer index of the first node of the local stencil, shape ``(N,)``.

    Returns
    -------
    ``(N, 4)`` array with ``S[s] = max(0, 1 - |xi - (base + s)|)``.
    """
    nodes = base[:, None] + np.arange(4)[None, :]
    return np.maximum(0.0, 1.0 - np.abs(xi[:, None] - nodes))


def _scatter_cic(target: np.ndarray, positions: np.ndarray, values: np.ndarray,
                 cell_size: Tuple[float, float, float],
                 stagger: Tuple[float, float, float]) -> None:
    """Scatter-add per-particle ``values`` with trilinear weights."""
    shape = target.shape
    i0, frac = _cic_indices_weights(positions, cell_size, shape, stagger)
    nx, ny, nz = shape
    wx = (1.0 - frac[:, 0], frac[:, 0])
    wy = (1.0 - frac[:, 1], frac[:, 1])
    wz = (1.0 - frac[:, 2], frac[:, 2])
    ix = (i0[:, 0] % nx, (i0[:, 0] + 1) % nx)
    iy = (i0[:, 1] % ny, (i0[:, 1] + 1) % ny)
    iz = (i0[:, 2] % nz, (i0[:, 2] + 1) % nz)
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                w = wx[di] * wy[dj] * wz[dk] * values
                np.add.at(target, (ix[di], iy[dj], iz[dk]), w)


def deposit_charge_cic_reference(grid: YeeGrid, positions: np.ndarray,
                                 charge: float, weights: np.ndarray) -> np.ndarray:
    """Add the charge density [C/m^3] of the particles into ``grid.rho``."""
    dv = grid.config.cell_volume
    values = (charge / dv) * np.asarray(weights, dtype=np.float64)
    _scatter_cic(grid.rho, positions, values, grid.config.cell_size, STAGGER["rho"])
    return grid.rho


def deposit_current_esirkepov_reference(grid: YeeGrid, old_positions: np.ndarray,
                                        new_positions: np.ndarray, charge: float,
                                        weights: np.ndarray, dt: float) -> None:
    """Charge-conserving (Esirkepov, first order) current deposition.

    The particle may move at most one cell per time step (guaranteed by the
    CFL limit since ``|v| < c``).  The deposited current satisfies the
    discrete continuity equation with node-centred CIC charge density and
    the staggered current components used by :class:`YeeGrid`.

    Parameters
    ----------
    old_positions, new_positions:
        Positions before and after the position update, shape ``(N, 3)``
        (not yet wrapped by periodic boundaries — pass the raw advanced
        positions so that the displacement is continuous).
    charge, weights, dt:
        Real-particle charge [C], macro-particle weights, time step [s].
    """
    old_positions = np.asarray(old_positions, dtype=np.float64)
    new_positions = np.asarray(new_positions, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if old_positions.shape != new_positions.shape:
        raise ValueError("old and new positions must have the same shape")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = old_positions.shape[0]
    if n == 0:
        return
    dx, dy, dz = grid.config.cell_size
    nx, ny, nz = grid.shape
    dv = grid.config.cell_volume

    cell = np.array([dx, dy, dz])
    xi0 = old_positions / cell           # (N, 3) in cell units
    xi1 = new_positions / cell
    displacement = np.abs(xi1 - xi0)
    if not np.all(displacement < 1.0):          # NaN must fail the check too
        raise ValueError("Esirkepov deposition requires particles to move "
                         "less than one cell per step")

    # Local 4-node stencil starting one node below the old cell.
    base = np.floor(xi0).astype(np.int64) - 1   # (N, 3)

    s0x = _hat_weights(xi0[:, 0], base[:, 0])   # (N, 4)
    s0y = _hat_weights(xi0[:, 1], base[:, 1])
    s0z = _hat_weights(xi0[:, 2], base[:, 2])
    s1x = _hat_weights(xi1[:, 0], base[:, 0])
    s1y = _hat_weights(xi1[:, 1], base[:, 1])
    s1z = _hat_weights(xi1[:, 2], base[:, 2])
    dsx, dsy, dsz = s1x - s0x, s1y - s0y, s1z - s0z

    # Esirkepov density decomposition weights, shape (N, 4, 4, 4).
    def w_block(ds_a, s0_b, ds_b, s0_c, ds_c, order):
        """W along axis a with the two transverse axes b, c."""
        term = (s0_b[:, :, None] * s0_c[:, None, :]
                + 0.5 * ds_b[:, :, None] * s0_c[:, None, :]
                + 0.5 * s0_b[:, :, None] * ds_c[:, None, :]
                + (1.0 / 3.0) * ds_b[:, :, None] * ds_c[:, None, :])
        # outer product with ds_a along the correct axis ordering
        w = ds_a[:, :, None, None] * term[:, None, :, :]
        return np.transpose(w, order)

    # W_x indexed (N, i, j, k): ds along x, transverse y (j) and z (k)
    w_x = w_block(dsx, s0y, dsy, s0z, dsz, (0, 1, 2, 3))
    # W_y: ds along y, transverse x (i) and z (k); build as (N, j, i, k) then swap
    w_y = np.transpose(w_block(dsy, s0x, dsx, s0z, dsz, (0, 1, 2, 3)), (0, 2, 1, 3))
    # W_z: ds along z, transverse x (i) and y (j); build as (N, k, i, j) then move k last
    w_z = np.transpose(w_block(dsz, s0x, dsx, s0y, dsy, (0, 1, 2, 3)), (0, 2, 3, 1))

    factor = (charge / dv) * weights / dt       # (N,)
    jx_local = -factor[:, None, None, None] * np.cumsum(w_x, axis=1) * dx
    jy_local = -factor[:, None, None, None] * np.cumsum(w_y, axis=2) * dy
    jz_local = -factor[:, None, None, None] * np.cumsum(w_z, axis=3) * dz

    # Global (periodic) indices of the stencil nodes, shape (N, 4).
    gx = (base[:, 0, None] + np.arange(4)[None, :]) % nx
    gy = (base[:, 1, None] + np.arange(4)[None, :]) % ny
    gz = (base[:, 2, None] + np.arange(4)[None, :]) % nz

    idx_x = np.broadcast_to(gx[:, :, None, None], (n, 4, 4, 4))
    idx_y = np.broadcast_to(gy[:, None, :, None], (n, 4, 4, 4))
    idx_z = np.broadcast_to(gz[:, None, None, :], (n, 4, 4, 4))

    np.add.at(grid.Jx, (idx_x, idx_y, idx_z), jx_local)
    np.add.at(grid.Jy, (idx_x, idx_y, idx_z), jy_local)
    np.add.at(grid.Jz, (idx_x, idx_y, idx_z), jz_local)
