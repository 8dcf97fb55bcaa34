"""Tests of the particle container and the relativistic Boris pusher."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.pic.particles import ParticleSpecies
from repro.pic.pusher import advance_positions, boris_push, wrap_periodic


def single_electron(u=(0.0, 0.0, 0.0)):
    return ParticleSpecies.electrons(
        positions=np.zeros((1, 3)), momenta=np.array([u], dtype=float),
        weights=np.ones(1))


class TestParticleSpecies:
    def test_gamma(self):
        s = single_electron(u=(0.6, 0.0, 0.0))
        assert s.gamma()[0] == pytest.approx(np.sqrt(1.0 + 0.36))

    def test_total_charge(self):
        """A macro-particle of weight w carries w real particles' charge."""
        s = ParticleSpecies.electrons(np.zeros((5, 3)), np.zeros((5, 3)),
                                      np.full(5, 2.0))
        assert s.charge * s.weights.sum() == pytest.approx(
            -10 * constants.ELEMENTARY_CHARGE)
        p = ParticleSpecies.protons(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1))
        assert (p.charge, p.mass) == (constants.ELEMENTARY_CHARGE,
                                      constants.PROTON_MASS)

    def test_kinetic_energy_nonrelativistic_limit(self):
        u = 1e-3
        s = single_electron(u=(u, 0.0, 0.0))
        classical = 0.5 * constants.ELECTRON_MASS * (u * constants.SPEED_OF_LIGHT) ** 2
        assert s.kinetic_energy() == pytest.approx(classical, rel=1e-5)

    def test_phase_space_shape(self, rng):
        s = ParticleSpecies.electrons(rng.random((7, 3)), rng.random((7, 3)),
                                      np.ones(7))
        assert s.phase_space().shape == (7, 6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleSpecies.electrons(np.zeros((3, 2)), np.zeros((3, 3)), np.ones(3))
        with pytest.raises(ValueError):
            ParticleSpecies.electrons(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(4))


class TestBorisPusher:
    def test_pure_magnetic_field_conserves_energy(self):
        """|u| is exactly conserved in a pure magnetic field."""
        s = single_electron(u=(0.5, 0.0, 0.0))
        b = np.array([[0.0, 0.0, 1.0e-3]])
        e = np.zeros((1, 3))
        u0 = np.linalg.norm(s.momenta[0])
        dt = 1e-12
        for _ in range(500):
            boris_push(s, e, b, dt)
        assert np.linalg.norm(s.momenta[0]) == pytest.approx(u0, rel=1e-12)

    def test_gyration_frequency(self):
        """The rotation angle per step matches the relativistic cyclotron frequency."""
        u0 = 0.3
        s = single_electron(u=(u0, 0.0, 0.0))
        bz = 5.0e-4
        gamma = np.sqrt(1 + u0 ** 2)
        omega_c = constants.ELEMENTARY_CHARGE * bz / (constants.ELECTRON_MASS * gamma)
        dt = 0.001 / omega_c
        steps = 200
        boris_e = np.zeros((1, 3))
        boris_b = np.array([[0.0, 0.0, bz]])
        for _ in range(steps):
            boris_push(s, boris_e, boris_b, dt)
        angle = np.arctan2(s.momenta[0, 1], s.momenta[0, 0])
        # electron (negative charge) rotates in +phi direction for +Bz
        expected = omega_c * dt * steps
        assert abs(abs(angle) - expected) < 1e-3

    def test_electric_acceleration_matches_analytic(self):
        """du/dt = qE/(mc) for a particle starting at rest."""
        s = single_electron()
        ez = 1.0e3
        e = np.array([[0.0, 0.0, ez]])
        b = np.zeros((1, 3))
        dt = 1e-12
        steps = 100
        for _ in range(steps):
            boris_push(s, e, b, dt)
        expected_u = (-constants.ELEMENTARY_CHARGE) * ez * dt * steps / (
            constants.ELECTRON_MASS * constants.SPEED_OF_LIGHT)
        assert s.momenta[0, 2] == pytest.approx(expected_u, rel=1e-9)

    def test_invalid_dt(self):
        s = single_electron()
        with pytest.raises(ValueError):
            boris_push(s, np.zeros((1, 3)), np.zeros((1, 3)), 0.0)


class TestAdvancePositions:
    def test_free_streaming(self):
        s = single_electron(u=(0.2, 0.0, 0.0))
        dt = 1e-12
        v = 0.2 / np.sqrt(1.04) * constants.SPEED_OF_LIGHT
        new = advance_positions(s, dt)
        assert new[0, 0] == pytest.approx(v * dt)
        # the species is not changed; the caller stores the new positions
        assert s.positions[0, 0] == 0.0
        out = np.empty((1, 3))
        assert advance_positions(s, dt, out) is out
        np.testing.assert_array_equal(out, new)

    def test_periodic_wrapping(self):
        s = single_electron(u=(1.0, 0.0, 0.0))
        s.positions[0] = [0.9e-6, 0.0, 0.0]
        extent = (1.0e-6, 1.0e-6, 1.0e-6)
        dt = 1e-14
        unwrapped = advance_positions(s, dt)
        assert unwrapped[0, 0] > 0.9e-6
        # the simulation step's recipe: wrap in place once deposited
        s.positions = wrap_periodic(unwrapped, extent, out=unwrapped)
        assert 0.0 <= s.positions[0, 0] < 1.0e-6

    @pytest.mark.parametrize("extent", [3.2e-4, (3.2e-4, 6.4e-4, 2.0e-5)])
    def test_wrap_is_np_mod_bit_for_bit(self, rng, extent):
        """In the box the remainder is the value itself; everything else —
        signed zeros, the faces, negatives, non-finite — takes ``np.mod``."""
        size = np.asarray(extent, dtype=np.float64)
        values = rng.uniform(0.0, 1.0, size=(4000, 3)) * size
        values[::7] = rng.uniform(-40.0, 40.0, size=values[::7].shape) * size
        special = np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.nextafter(1.0, 0.0),
                            np.nan, np.inf, -np.inf])
        values[:special.size] = special[:, None] * size
        values[special.size] = -1e-25
        with np.errstate(invalid="ignore"):       # mod of an infinity
            want = np.mod(values, extent)
            got = wrap_periodic(values, extent)
        assert got is not values
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert np.signbit(got[1, 0]) == np.signbit(want[1, 0])    # -0.0 -> 0.0

    def test_speed_never_exceeds_c(self, rng):
        momenta = rng.normal(scale=5.0, size=(100, 3))
        s = ParticleSpecies.electrons(np.zeros((100, 3)), momenta, np.ones(100))
        betas = np.linalg.norm(s.momenta, axis=1) / s.gamma()
        assert np.all(betas < 1.0)
