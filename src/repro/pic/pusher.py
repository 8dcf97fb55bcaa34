"""Relativistic Boris particle pusher.

Momenta are stored as the dimensionless ``u = gamma * beta``; the standard
Boris rotation is applied in that variable (Birdsall & Langdon / Hockney &
Eastwood form), which conserves energy exactly for a pure magnetic field.

:func:`boris_push` is the readable ``(N, 3)`` form of that rotation and the
oracle of :func:`repro.pic.kernels.boris_push_fused`, which is what the
simulator runs; :func:`advance_positions` is the position update both use.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import constants
from repro.pic.particles import ParticleSpecies


def boris_push(species: ParticleSpecies, e_fields: np.ndarray, b_fields: np.ndarray,
               dt: float) -> None:
    """Advance the momenta of ``species`` by ``dt`` in place.

    Parameters
    ----------
    e_fields, b_fields:
        Fields interpolated to the particle positions, shape ``(N, 3)``,
        in V/m and T.
    dt:
        Time step in seconds.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    e_fields = np.asarray(e_fields, dtype=np.float64)
    b_fields = np.asarray(b_fields, dtype=np.float64)
    if e_fields.shape != species.momenta.shape or b_fields.shape != species.momenta.shape:
        raise ValueError("field arrays must have shape (N, 3)")

    qmdt2 = species.charge * dt / (2.0 * species.mass * constants.SPEED_OF_LIGHT)

    u = species.momenta
    # half electric acceleration
    u_minus = u + qmdt2 * e_fields
    gamma_minus = np.sqrt(1.0 + np.einsum("ij,ij->i", u_minus, u_minus))

    # magnetic rotation
    t_vec = (species.charge * dt / (2.0 * species.mass)) * b_fields / gamma_minus[:, None]
    t_sq = np.einsum("ij,ij->i", t_vec, t_vec)
    s_vec = 2.0 * t_vec / (1.0 + t_sq)[:, None]
    u_prime = u_minus + np.cross(u_minus, t_vec)
    u_plus = u_minus + np.cross(u_prime, s_vec)

    # second half electric acceleration
    species.momenta = u_plus + qmdt2 * e_fields


def wrap_periodic(values: np.ndarray, extent,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """The floored remainder ``values mod extent``, bit for bit, in ``out``
    (``None``: a new array).

    ``extent`` is a scalar or one value per entry of the last axis.  For
    ``0 < x < extent`` the remainder is ``x`` itself, so only the entries
    outside that open interval (``±0.0``, ``extent``, negatives, NaN, ``±inf``)
    pay the division.
    """
    if out is None:
        wrapped = np.array(values, dtype=np.float64)
    else:
        wrapped = out
        np.copyto(wrapped, values)
    extent = np.asarray(extent, dtype=np.float64)
    outside = np.flatnonzero(~((wrapped > 0.0) & (wrapped < extent)))
    if outside.size:
        flat = wrapped.reshape(-1)
        flat[outside] = np.mod(flat[outside],
                               extent.reshape(-1)[outside % extent.size])
    return wrapped


def advance_positions(species: ParticleSpecies, dt: float,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """The species' new positions ``x + v dt``, *unwrapped*, in ``out`` (a
    C-contiguous ``(N, 3)`` array; ``None``: a new one).

    The species is not changed.  The Esirkepov deposition reads the new
    positions unwrapped, so the displacement is continuous; the caller
    stores them afterwards wrapped into the box, in place:
    ``species.positions = wrap_periodic(new, box_extent, out=new)``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if out is None:
        out = np.empty(species.positions.shape)
    scale = species.gamma()
    np.divide(constants.SPEED_OF_LIGHT, scale, out=scale)
    # v * dt, then + x in place (the sum of the same two terms)
    np.multiply(species.momenta, scale[:, None], out=out)
    out *= dt
    out += species.positions
    return out
