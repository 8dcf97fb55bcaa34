"""Tests of the in-stream data-reduction operators (Fig. 3b)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.reduction import (ParticleSubsampleReducer,
                                       PrecisionReducer, ReductionPipeline)


class TestPrecisionReducer:
    def test_downcasts_float64(self, rng):
        reducer = PrecisionReducer()
        data = rng.random((100, 3))
        reduced = reducer.reduce("particles/position", data)
        assert reduced.dtype == np.float32
        assert data.nbytes == 2 * reduced.nbytes

    def test_keeps_narrow_types(self, rng):
        reducer = PrecisionReducer()
        data = rng.random((10,)).astype(np.float32)
        assert reducer.reduce("x", data).dtype == np.float32
        assert reducer.reduce("x", data.astype(np.float16)).dtype == np.float16
        ids = np.arange(10, dtype=np.int64)
        assert reducer.reduce("x", ids) is ids

    def test_values_preserved_within_precision(self, rng):
        reducer = PrecisionReducer()
        data = rng.random((50,))
        np.testing.assert_allclose(reducer.reduce("x", data), data, rtol=1e-6)


class TestParticleSubsampleReducer:
    def test_keeps_requested_fraction(self, rng):
        reducer = ParticleSubsampleReducer(0.25, rng=rng)
        data = rng.random((400, 6))
        reduced = reducer.reduce("particles/phase_space", data)
        assert reduced.shape == (100, 6)

    def test_same_selection_for_all_records_of_a_step(self, rng):
        """Positions and momenta of one step must keep matching rows."""
        reducer = ParticleSubsampleReducer(0.5, rng=rng)
        base = rng.random((200, 3))
        a = reducer.reduce("particles/position", base)
        b = reducer.reduce("particles/momentum", base)
        np.testing.assert_allclose(a, b)

    def test_weights_rescaled_to_preserve_totals(self, rng):
        reducer = ParticleSubsampleReducer(0.5, rng=rng)
        weights = rng.uniform(1.0, 2.0, size=1000)
        reduced = reducer.reduce("particles/weighting", weights)
        assert reduced.sum() == pytest.approx(weights.sum(), rel=0.1)

    def test_ignores_non_particle_records(self, rng):
        reducer = ParticleSubsampleReducer(0.1, rng=rng)
        mesh = rng.random((32, 32))
        np.testing.assert_allclose(reducer.reduce("meshes/E/x", mesh), mesh)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ParticleSubsampleReducer(0.0, rng=np.random.default_rng(0))

    def test_new_step_changes_selection(self, rng):
        reducer = ParticleSubsampleReducer(0.5, rng=np.random.default_rng(0))
        data = np.arange(100, dtype=np.float64)[:, None]
        first = reducer.reduce("particles/x", data)
        reducer.new_step()
        second = reducer.reduce("particles/x", data)
        assert first.shape == second.shape
        assert not np.array_equal(first, second)


def nbytes(variables) -> int:
    return sum(data.nbytes for data in variables.values())


class TestReductionPipeline:
    def test_combined_factor(self, rng):
        # subsample 1/fraction x, float64 -> float32 2x
        for fraction, factor in ((0.5, 4.0), (0.25, 8.0)):
            pipeline = ReductionPipeline([
                ParticleSubsampleReducer(fraction, rng=rng),
                PrecisionReducer(),
            ])
            variables = {"particles/phase_space": rng.random((1000, 6)),
                         "particles/weighting": rng.random(1000)}
            reduced = pipeline.reduce_step(variables)
            assert reduced["particles/phase_space"].shape[0] == 1000 * fraction
            assert reduced["particles/phase_space"].dtype == np.float32
            assert nbytes(variables) / nbytes(reduced) == \
                pytest.approx(factor, rel=0.05)

    def test_identity_pipeline(self, rng):
        pipeline = ReductionPipeline([])
        variables = {"a": rng.random(10)}
        out = pipeline.reduce_step(variables)
        np.testing.assert_allclose(out["a"], variables["a"])
        assert nbytes(out) == nbytes(variables)

    @given(st.floats(0.05, 1.0), st.integers(16, 256))
    @settings(max_examples=20, deadline=None)
    def test_subsample_factor_matches_fraction(self, fraction, n):
        rng = np.random.default_rng(int(fraction * 1000) + n)
        pipeline = ReductionPipeline([ParticleSubsampleReducer(fraction, rng=rng)])
        variables = {"particles/x": rng.random((n, 3))}
        reduced = pipeline.reduce_step(variables)
        expected = n / max(1, int(round(fraction * n)))
        assert nbytes(variables) / nbytes(reduced) == \
            pytest.approx(expected, rel=1e-6)
