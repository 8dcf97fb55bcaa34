"""Tests of the shared utilities and physical constants."""

from __future__ import annotations

import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.utils.rng import derive_seed, seeded_rng, spawn_rngs
from repro.utils.serialization import jsonable, write_json
from repro.utils.validation import check_array, check_positive


class TestConstants:
    def test_plasma_frequency_known_value(self):
        # n = 1e18 m^-3 -> f_p ~ 9 GHz (omega_p ~ 5.64e10 rad/s)
        omega_p = constants.plasma_frequency(1e18)
        assert omega_p == pytest.approx(5.64e10, rel=0.01)

    def test_zero_density_limits(self):
        assert constants.plasma_frequency(0.0) == 0.0

    def test_negative_density_raises(self):
        with pytest.raises(ValueError):
            constants.plasma_frequency(-1.0)

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

    def test_spawn_rngs_deterministic(self):
        a = spawn_rngs(3, 4)
        b = spawn_rngs(3, 4)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left.random(5), right.random(5))

    def test_spawn_rngs_children_are_the_seed_sequence_spawn(self):
        """A campaign's per-run streams are pinned: child ``i`` of seed ``s``
        is the generator of ``SeedSequence(s).spawn(n)[i]``."""
        children = spawn_rngs(11, 3)
        for child, seq in zip(children, np.random.SeedSequence(11).spawn(3)):
            np.testing.assert_array_equal(child.random(4),
                                          np.random.default_rng(seq).random(4))

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
        payload = jsonable({"a": np.float64(1.5), "b": np.arange(3),
                            "c": (np.int32(2), [np.bool_(True)])})
        assert payload == {"a": 1.5, "b": [0, 1, 2], "c": [2, [True]]}
        json.dumps(payload)

    def test_non_finite_floats_become_null(self):
        payload = jsonable({"loss": float("nan"), "bound": np.inf,
                            "arr": np.array([1.0, np.nan])})
        assert payload == {"loss": None, "bound": None, "arr": [1.0, None]}
        assert "NaN" not in json.dumps(payload)

    def test_zero_dimensional_arrays_become_scalars(self):
        assert jsonable(np.array(1.5)) == 1.5
        assert jsonable({"a": np.array(2)}) == {"a": 2}


class TestWriteJson:
    def test_a_write_that_fails_part_way_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(str(path), {"version": 1})
        saved = path.read_text()
        # json.dump has written the first key when the second fails
        with pytest.raises(TypeError):
            write_json(str(path), {"version": 2, "torn": object()})
        assert path.read_text() == saved
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_concurrent_writers_of_one_path_leave_one_whole_document(
            self, tmp_path):
        path = str(tmp_path / "doc.json")
        documents = [{"writer": i, "rows": list(range(2000))} for i in range(4)]

        def write_many(document):
            for _ in range(20):
                write_json(path, document)

        threads = [threading.Thread(target=write_many, args=(document,))
                   for document in documents]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) in documents
        assert os.listdir(tmp_path) == ["doc.json"]


class TestValidation:
    def test_check_array(self):
        arr = check_array([[1, 2], [3, 4]], "m", ndim=2)
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            check_array([1, 2], "m", ndim=2)

    def test_check_positive(self):
        assert check_positive(2.0, "x") == 2.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        with pytest.raises(ValueError):
            check_positive(-1.0, "x")
