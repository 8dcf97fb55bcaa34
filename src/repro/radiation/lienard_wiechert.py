"""Liénard-Wiechert far-field amplitudes.

The classical result (Jackson, Ch. 14): the energy radiated per unit solid
angle and unit angular frequency by a charge is

.. math::

    \\frac{d^2 I}{d\\Omega\\, d\\omega} = \\frac{q^2}{16 \\pi^3 \\varepsilon_0 c}
    \\left| \\int_{-\\infty}^{\\infty}
    \\frac{\\vec n \\times [(\\vec n - \\vec\\beta) \\times \\dot{\\vec\\beta}]}
         {(1 - \\vec n \\cdot \\vec\\beta)^2}
    \\, e^{i \\omega (t - \\vec n \\cdot \\vec r(t) / c)}\\, dt \\right|^2

The PIC radiation plugin evaluates the time integral as a sum over
simulation time steps (Pausch et al. 2014).  :func:`radiation_amplitude_step`
returns one step's contribution to the (vector-valued, complex) amplitude on
the full ``(direction, frequency)`` detector grid; :func:`accumulate_amplitude`
adds it to a running total.  Particles are processed in chunks so the
``(particles × directions × frequencies)`` intermediate never exceeds a few
tens of megabytes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import constants
from repro.radiation.detector import RadiationDetector

#: Prefactor of the spectral energy density, q^2 / (16 pi^3 eps0 c).
#: Particles per vectorised chunk of the amplitude sum.
CHUNK_SIZE = 512


def spectral_prefactor(charge: float) -> float:
    return charge ** 2 / (16.0 * np.pi ** 3 * constants.EPSILON_0
                          * constants.SPEED_OF_LIGHT)


def radiation_amplitude_step(detector: RadiationDetector,
                             positions: np.ndarray,
                             beta: np.ndarray,
                             beta_dot: np.ndarray,
                             weights: np.ndarray,
                             time: float,
                             dt: float) -> np.ndarray:
    """One time step's contribution to the complex far-field amplitude.

    Parameters
    ----------
    detector:
        Observation directions and angular frequencies.
    positions:
        Particle positions ``(N, 3)`` [m] at the current step.
    beta:
        Normalised velocities ``(N, 3)`` at the current step.
    beta_dot:
        Time derivative of ``beta`` ``(N, 3)`` [1/s] (finite difference of
        the momenta across the step).
    weights:
        Macro-particle weights ``(N,)``.  Weights multiply the *amplitude*
        (fully coherent macro-particles).
    time:
        Current simulation time [s].
    dt:
        Time-step length [s] (the integration measure).

    Particles go :data:`CHUNK_SIZE` at a time.

    Returns
    -------
    Complex array of shape ``(n_directions, n_frequencies, 3)``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    beta_dot = np.asarray(beta_dot, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = positions.shape[0]
    directions = detector.directions                      # (D, 3)
    omegas = detector.frequencies                         # (F,)
    out = np.zeros((detector.n_directions, detector.n_frequencies, 3),
                   dtype=np.complex128)
    if n == 0:
        return out
    inv_c = 1.0 / constants.SPEED_OF_LIGHT
    for start in range(0, n, CHUNK_SIZE):
        stop = min(start + CHUNK_SIZE, n)
        pos = positions[start:stop]                       # (P, 3)
        b = beta[start:stop]
        bdot = beta_dot[start:stop]
        w = weights[start:stop]

        # geometry terms, shape (P, D, ...)
        n_dot_beta = b @ directions.T                     # (P, D)
        one_minus = 1.0 - n_dot_beta
        np.clip(one_minus, 1e-12, None, out=one_minus)
        # n x ((n - beta) x beta_dot) for every particle/direction
        diff = directions[None, :, :] - b[:, None, :]     # (P, D, 3)
        inner = np.cross(diff, bdot[:, None, :])          # (P, D, 3)
        vector = np.cross(directions[None, :, :], inner)  # (P, D, 3)
        vector /= (one_minus ** 2)[:, :, None]
        vector *= w[:, None, None]

        # retarded phase: omega * (t - n.r/c), shape (P, D, F)
        n_dot_r = pos @ directions.T                      # (P, D)
        phase = np.exp(1j * omegas[None, None, :]
                       * (time - n_dot_r[:, :, None] * inv_c))

        # sum over particles in the chunk
        out += np.einsum("pdf,pdc->dfc", phase, vector) * dt
    return out


def accumulate_amplitude(total: Optional[np.ndarray], detector: RadiationDetector,
                         positions: np.ndarray, beta: np.ndarray, beta_dot: np.ndarray,
                         weights: np.ndarray, time: float, dt: float) -> np.ndarray:
    """Add one step's contribution to ``total`` (allocating it if ``None``)."""
    step = radiation_amplitude_step(detector, positions, beta, beta_dot, weights,
                                    time, dt)
    if total is None:
        return step
    total += step
    return total
