"""Tests of the shared utilities and physical constants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.utils.rng import derive_seed, seeded_rng, spawn_rngs
from repro.utils.serialization import jsonable
from repro.utils.validation import (broadcast_shapes, check_array, check_in,
                                    check_positive, check_probability, check_shape)


class TestConstants:
    def test_plasma_frequency_known_value(self):
        # n = 1e18 m^-3 -> f_p ~ 9 GHz (omega_p ~ 5.64e10 rad/s)
        omega_p = constants.plasma_frequency(1e18)
        assert omega_p == pytest.approx(5.64e10, rel=0.01)

    def test_skin_depth_and_wavelength_consistent(self):
        n = 1e20
        omega_p = constants.plasma_frequency(n)
        assert constants.skin_depth(n) == pytest.approx(constants.SPEED_OF_LIGHT / omega_p)
        assert constants.plasma_wavelength(n) == pytest.approx(
            2 * math.pi * constants.skin_depth(n))

    def test_zero_density_limits(self):
        assert constants.plasma_frequency(0.0) == 0.0
        assert constants.skin_depth(0.0) == math.inf

    def test_negative_density_raises(self):
        with pytest.raises(ValueError):
            constants.plasma_frequency(-1.0)

    def test_lorentz_gamma(self):
        assert constants.lorentz_gamma(0.0) == pytest.approx(1.0)
        assert constants.lorentz_gamma(0.6) == pytest.approx(1.25)
        with pytest.raises(ValueError):
            constants.lorentz_gamma(1.0)

    def test_courant_limit_cubic(self):
        dt = constants.courant_limit(1e-5, 1e-5, 1e-5)
        assert dt == pytest.approx(1e-5 / (constants.SPEED_OF_LIGHT * math.sqrt(3)))
        with pytest.raises(ValueError):
            constants.courant_limit(0.0, 1.0, 1.0)

    def test_paper_constants_present(self):
        assert constants.PAPER_BETA == 0.2
        assert constants.PAPER_PARTICLES_PER_CELL == 9
        assert constants.PAPER_SMALLEST_GRID == (192, 256, 12)


class TestRNG:
    def test_seeded_rng_reproducible(self):
        a = seeded_rng(5).random(3)
        b = seeded_rng(5).random(3)
        np.testing.assert_allclose(a, b)

    def test_seeded_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert seeded_rng(gen) is gen

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(7, 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_rngs_from_generator(self):
        children = spawn_rngs(np.random.default_rng(1), 2)
        assert len(children) == 2

    def test_spawn_rngs_from_generator_deterministic(self):
        a = spawn_rngs(np.random.default_rng(3), 4)
        b = spawn_rngs(np.random.default_rng(3), 4)
        for left, right in zip(a, b):
            np.testing.assert_allclose(left.random(5), right.random(5))

    def test_spawn_rngs_generator_children_never_collide(self):
        """Regression: children were seeded with raw ``integers()`` draws, so
        a generator yielding equal draws handed children identical streams.
        SeedSequence-derived children stay distinct even for equal entropy."""

        class ConstantEntropyGenerator(np.random.Generator):
            def integers(self, *args, **kwargs):
                size = kwargs.get("size")
                return np.zeros(size, dtype=np.int64) if size else 0

        children = spawn_rngs(ConstantEntropyGenerator(np.random.PCG64(0)), 64)
        first_draws = {float(child.random()) for child in children}
        assert len(first_draws) == 64

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
        assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_derive_seed_in_range(self, seed):
        derived = derive_seed(seed, 4)
        assert 0 <= derived < 2**63 - 1


class TestJsonable:
    def test_coerces_numpy_scalars_arrays_and_containers(self):
        import json

        payload = jsonable({"a": np.float64(1.5), "b": np.arange(3),
                            "c": (np.int32(2), [np.bool_(True)])})
        assert payload == {"a": 1.5, "b": [0, 1, 2], "c": [2, [True]]}
        json.dumps(payload)

    def test_non_finite_floats_become_null(self):
        import json

        payload = jsonable({"loss": float("nan"), "bound": np.inf,
                            "arr": np.array([1.0, np.nan])})
        assert payload == {"loss": None, "bound": None, "arr": [1.0, None]}
        assert "NaN" not in json.dumps(payload)

    def test_zero_dimensional_arrays_become_scalars(self):
        assert jsonable(np.array(1.5)) == 1.5
        assert jsonable({"a": np.array(2)}) == {"a": 2}


class TestValidation:
    def test_check_array(self):
        arr = check_array([[1, 2], [3, 4]], "m", dtype=np.float64, ndim=2)
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            check_array([1, 2], "m", ndim=2)
        with pytest.raises(ValueError):
            check_array([], "m", allow_empty=False)

    def test_check_shape(self):
        check_shape(np.zeros((3, 4)), (3, None), "m")
        with pytest.raises(ValueError):
            check_shape(np.zeros((3, 4)), (4, None), "m")
        with pytest.raises(ValueError):
            check_shape(np.zeros((3,)), (3, 1), "m")

    def test_check_positive(self):
        assert check_positive(2.0, "x") == 2.0
        assert check_positive(0.0, "x", strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        with pytest.raises(ValueError):
            check_positive(-1.0, "x", strict=False)

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_check_in(self):
        assert check_in("a", ("a", "b"), "mode") == "a"
        with pytest.raises(ValueError):
            check_in("c", ("a", "b"), "mode")

    def test_broadcast_shapes(self):
        assert broadcast_shapes((3, 1), (1, 4)) == (3, 4)
