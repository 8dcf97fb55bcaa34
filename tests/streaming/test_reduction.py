"""Tests of the in-stream data reduction (Fig. 3b)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.reduction import ReductionPipeline

WEIGHTING = "particles/electrons/weighting"


def raw_records(rng, n):
    """One step's raw electron records, as the producer hands them over."""
    records = {f"particles/electrons/{record}/{axis}": rng.random(n)
               for record in ("position", "momentum") for axis in "xyz"}
    records[WEIGHTING] = rng.uniform(1.0, 2.0, size=n)
    return records


def nbytes(records) -> int:
    return sum(data.nbytes for data in records.values())


def composed_reducers(records, fraction, to_float32, rng):
    """The reduction as a subsampler and a caster composed per record: one
    sorted draw per array length, then each record's rescale and cast."""
    selections, reduced = {}, {}
    for path, data in records.items():
        n = len(data)
        if fraction < 1.0:
            if n not in selections:
                keep = max(1, int(round(fraction * n)))
                selections[n] = np.sort(rng.choice(n, size=keep, replace=False))
            data = data[selections[n]]
            if "weight" in path:
                data = data * (n / len(selections[n]))
        reduced[path] = data.astype(np.float32) if to_float32 else data
    return reduced


class TestReduceStep:
    @pytest.mark.parametrize("to_float32", [False, True])
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_reduces_bit_for_bit_as_the_composed_reducers(self, fraction,
                                                          to_float32):
        pipeline = ReductionPipeline(fraction, to_float32,
                                     rng=np.random.default_rng(6))
        oracle_rng = np.random.default_rng(6)
        data_rng = np.random.default_rng(11)
        for _ in range(3):            # a fresh selection on every step
            records = raw_records(data_rng, 301)
            reduced = pipeline.reduce_step(records)
            expected = composed_reducers(records, fraction, to_float32,
                                         oracle_rng)
            assert list(reduced) == list(expected)
            for path in expected:
                assert reduced[path].dtype == expected[path].dtype
                np.testing.assert_array_equal(reduced[path], expected[path])

    def test_keeps_requested_fraction_with_matching_rows(self, rng):
        """Positions, momenta and weights of one step keep matching rows."""
        records = raw_records(rng, 400)
        records["particles/electrons/momentum/x"] = \
            records["particles/electrons/position/x"].copy()
        reduced = ReductionPipeline(0.25, False, rng=rng).reduce_step(records)
        assert {len(data) for data in reduced.values()} == {100}
        np.testing.assert_array_equal(reduced["particles/electrons/position/x"],
                                      reduced["particles/electrons/momentum/x"])

    def test_weights_rescaled_to_preserve_totals(self, rng):
        records = raw_records(rng, 1000)
        reduced = ReductionPipeline(0.5, False, rng=rng).reduce_step(records)
        assert reduced[WEIGHTING].sum() == pytest.approx(records[WEIGHTING].sum(),
                                                         rel=0.1)

    def test_float32_halves_the_bytes_within_precision(self, rng):
        records = raw_records(rng, 100)
        reduced = ReductionPipeline(1.0, True, rng=rng).reduce_step(records)
        assert {data.dtype for data in reduced.values()} == {np.dtype(np.float32)}
        assert nbytes(records) == 2 * nbytes(reduced)
        for path, data in records.items():
            np.testing.assert_allclose(reduced[path], data, rtol=1e-6)

    def test_each_step_draws_a_new_selection(self):
        pipeline = ReductionPipeline(0.5, False, rng=np.random.default_rng(0))
        records = {"particles/electrons/position/x": np.arange(100.0)}
        first = pipeline.reduce_step(records)["particles/electrons/position/x"]
        second = pipeline.reduce_step(records)["particles/electrons/position/x"]
        assert first.shape == second.shape
        assert not np.array_equal(first, second)

    def test_combined_factor(self, rng):
        # subsample 1/fraction x, float64 -> float32 2x
        for fraction, factor in ((0.5, 4.0), (0.25, 8.0)):
            records = raw_records(rng, 1000)
            reduced = ReductionPipeline(fraction, True, rng=rng).reduce_step(records)
            assert len(reduced[WEIGHTING]) == 1000 * fraction
            assert nbytes(records) / nbytes(reduced) == pytest.approx(factor)

    @given(st.floats(0.05, 1.0), st.integers(16, 256))
    @settings(max_examples=20, deadline=None)
    def test_subsample_factor_matches_fraction(self, fraction, n):
        rng = np.random.default_rng(int(fraction * 1000) + n)
        records = raw_records(rng, n)
        reduced = ReductionPipeline(fraction, False, rng=rng).reduce_step(records)
        expected = n / max(1, int(round(fraction * n)))
        assert nbytes(records) / nbytes(reduced) == pytest.approx(expected, rel=1e-6)
