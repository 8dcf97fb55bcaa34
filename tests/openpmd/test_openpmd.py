"""Tests of openPMD series on brokers and directory stores, and of the
record layout a workflow streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.producer import POINT_CLOUDS, REGIONS, SPECTRA
from repro.openpmd import DirectoryStore, Series
from repro.streaming import SSTBroker, Step
from repro.workflow import WorkflowBuilder


def make_step(index: int, rng, n_particles=20) -> Step:
    arrays = {f"particles/electrons/{record}/{comp}": rng.random(n_particles)
              for record in ("position", "momentum") for comp in ("x", "y", "z")}
    arrays["particles/electrons/weighting"] = np.ones(n_particles)
    arrays["particles/electrons/id"] = np.arange(n_particles, dtype=np.int64)
    return Step(index, arrays, {"iteration": index, "time": 1.0e-13 * index,
                                "dt": 1.0e-13, "timeUnitSI": 1.0})


def assert_same_step(read: Step, written: Step) -> None:
    assert read.index == written.index
    assert read.attributes == written.attributes
    assert list(read.arrays) == list(written.arrays)
    for path, data in written.arrays.items():
        assert read.arrays[path].dtype == data.dtype
        np.testing.assert_array_equal(read.arrays[path], data)


class TestSerialization:
    def test_roundtrip(self, rng, tmp_path):
        """A directory keeps every path, dtype, value and attribute of a step."""
        written = make_step(7, rng)
        DirectoryStore(str(tmp_path)).put_step(written)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "iteration_000007.json", "iteration_000007.npz"]
        read = DirectoryStore(str(tmp_path)).get_step()
        assert_same_step(read, written)


class TestSeriesWithBackends:
    def test_broker_roundtrip(self, rng):
        broker = SSTBroker("khi", queue_limit=8)
        writer = Series(broker)
        written = [make_step(i, rng) for i in range(4)]
        for step in written:
            writer.close_iteration(step)
        writer.close()

        read = list(Series(broker).read_iterations())
        assert [step.index for step in read] == [0, 1, 2, 3]
        for got, expected in zip(read, written):
            assert got is expected      # in transit: the step itself, no copy
        assert broker.steps_read == 4

    def test_directory_store_roundtrip(self, rng, tmp_path):
        writer = Series(DirectoryStore(str(tmp_path)))
        written = [make_step(i, rng) for i in (3, 1, 2)]
        for step in written:
            writer.close_iteration(step)
        writer.close()

        read = list(Series(DirectoryStore(str(tmp_path))).read_iterations())
        assert [step.index for step in read] == [1, 2, 3]
        by_index = {step.index: step for step in written}
        for got in read:
            assert_same_step(got, by_index[got.index])

    def test_streaming_iterations_consumed_once(self, rng):
        """Streamed data is dropped after being read (in-transit property)."""
        broker = SSTBroker("khi", queue_limit=8)
        writer = Series(broker)
        writer.close_iteration(make_step(0, rng))
        writer.close()

        reader = Series(broker)
        assert len(list(reader.read_iterations())) == 1
        assert len(list(reader.read_iterations())) == 0


class TestDirectoryStore:
    def test_a_second_run_cannot_mix_its_steps_into_the_first(self, rng, tmp_path):
        """Steps 1-5, then a second run's steps 1-2 into the same directory:
        the second run is refused and the reader sees the first run alone."""
        first = [make_step(i, rng) for i in range(1, 6)]
        writer = Series(DirectoryStore(str(tmp_path)))
        for step in first:
            writer.close_iteration(step)
        writer.close()

        second = Series(DirectoryStore(str(tmp_path)))
        with pytest.raises(FileExistsError, match="iteration 1 is already in"):
            second.close_iteration(make_step(1, rng))

        read = list(Series(DirectoryStore(str(tmp_path))).read_iterations())
        assert [step.index for step in read] == [1, 2, 3, 4, 5]
        for got, expected in zip(read, first):
            assert_same_step(got, expected)

    def test_empty_directory_ends_at_once(self, tmp_path):
        store = DirectoryStore(str(tmp_path / "new"))
        assert store.get_step() is None
        assert list(Series(store).read_iterations()) == []


class TestStreamedLayout:
    def test_bench_tiny_steps_hold_exactly_these_records(self):
        """What the object tree used to imply, pinned on the flat step."""
        session = WorkflowBuilder().preset("bench-tiny").driver("serial").build()
        steps = []
        put_step = session.fanout.put_step

        def recording_put(step):
            steps.append(step)
            put_step(step)

        session.fanout.put_step = recording_put
        report = session.run(3).raise_if_failed().report

        assert len(steps) == report.iterations_streamed == 3
        electrons = {f"particles/electrons/{record}/{comp}"
                     for record in ("position", "momentum") for comp in ("x", "y", "z")}
        electrons.add("particles/electrons/weighting")
        for step in steps:
            assert set(step.arrays) == {POINT_CLOUDS, SPECTRA, REGIONS} | electrons
            assert len(step.arrays) == 10
            assert set(step.attributes) == {"iteration", "time", "dt", "timeUnitSI"}
            assert step.attributes["iteration"] == step.index
            assert step.attributes["timeUnitSI"] == 1.0
            n_samples = len(step.arrays[POINT_CLOUDS])
            assert len(step.arrays[SPECTRA]) == len(step.arrays[REGIONS]) == n_samples
        assert report.bytes_streamed == sum(step.nbytes for step in steps)
