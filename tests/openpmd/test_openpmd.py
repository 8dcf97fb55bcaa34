"""Tests of the openPMD-like object model and its backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.openpmd import (Access, Iteration, JSONBackend, MemoryBackend, Series,
                           StreamingBackend)
from repro.openpmd.backends import arrays_to_iteration, iteration_to_arrays
from repro.streaming import SSTBroker


def fill_iteration(iteration: Iteration, rng, n_particles=20, grid=(4, 4, 2)):
    iteration.set_time(1.0e-13 * iteration.index, 1.0e-13)
    mesh = iteration.get_mesh("E")
    mesh.set_grid(spacing=(1e-5, 1e-5, 1e-5))
    for comp in ("x", "y", "z"):
        mesh[comp].store(rng.random(grid), unit_si=1.0)
    electrons = iteration.get_particles("electrons")
    for comp in ("x", "y", "z"):
        electrons["position"][comp].store(rng.random(n_particles), unit_si=1.0)
        electrons["momentum"][comp].store(rng.random(n_particles), unit_si=1.0)
    electrons["weighting"].store_scalar(np.ones(n_particles))
    return iteration


class TestRecords:
    def test_component_store_load(self, rng):
        it = Iteration(0)
        comp = it.get_mesh("B")["x"]
        data = rng.random((3, 3, 3))
        comp.store(data, unit_si=2.0)
        np.testing.assert_allclose(comp.load(), data)
        np.testing.assert_allclose(comp.load_si(), 2.0 * data)
        assert comp.nbytes == data.nbytes
        assert not comp.empty

    def test_load_empty_raises(self):
        it = Iteration(0)
        with pytest.raises(RuntimeError):
            it.get_mesh("B")["x"].load()

    def test_scalar_record(self, rng):
        it = Iteration(0)
        record = it.get_particles("e")["weighting"]
        record.store_scalar(np.ones(5))
        np.testing.assert_allclose(record.load_scalar(), 1.0)

    def test_mesh_grid_metadata(self):
        it = Iteration(0)
        mesh = it.get_mesh("E").set_grid(spacing=(1.0, 2.0, 3.0),
                                         axis_labels=("x", "y", "z"))
        assert mesh.get_attribute("gridSpacing") == [1.0, 2.0, 3.0]
        assert mesh.axis_labels == ("x", "y", "z")

    def test_attributes(self):
        it = Iteration(0)
        it.set_attribute("author", "artificial scientist")
        assert it.get_attribute("author") == "artificial scientist"
        assert it.has_attribute("author")
        assert not it.has_attribute("missing")

    def test_nbytes_aggregation(self, rng):
        it = fill_iteration(Iteration(0), rng, n_particles=10, grid=(2, 2, 2))
        assert it.nbytes == 3 * 2 * 2 * 2 * 8 + (6 * 10 + 10) * 8


class TestSerialization:
    def test_roundtrip(self, rng):
        it = fill_iteration(Iteration(7), rng)
        arrays = iteration_to_arrays(it)
        assert "meshes/E/x" in arrays
        assert "particles/electrons/position/x" in arrays
        assert "particles/electrons/weighting" in arrays
        rebuilt = arrays_to_iteration(7, arrays, {"time": it.time, "dt": it.dt})
        np.testing.assert_allclose(rebuilt.get_mesh("E")["x"].load(),
                                   it.get_mesh("E")["x"].load())
        np.testing.assert_allclose(
            rebuilt.get_particles("electrons")["weighting"].load_scalar(), 1.0)
        assert rebuilt.time == pytest.approx(it.time)


class TestSeriesWithBackends:
    def test_memory_backend_roundtrip(self, rng):
        backend = MemoryBackend()
        writer = Series("khi", Access.CREATE, backend)
        for i in range(3):
            fill_iteration(writer.write_iteration(i), rng)
            writer.close_iteration(i)
        writer.close()

        reader = Series("khi", Access.READ_LINEAR, backend)
        indices = [it.index for it in reader.read_iterations()]
        assert indices == [0, 1, 2]

    def test_json_backend_roundtrip(self, rng, tmp_path):
        directory = str(tmp_path / "openpmd")
        writer = Series("khi", Access.CREATE, JSONBackend(directory))
        original = fill_iteration(writer.write_iteration(0), rng)
        expected = original.get_particles("electrons")["position"]["x"].load().copy()
        writer.close_iteration(0)

        reader = Series("khi", Access.READ_LINEAR, JSONBackend(directory))
        read = list(reader.read_iterations())
        assert len(read) == 1
        np.testing.assert_allclose(
            read[0].get_particles("electrons")["position"]["x"].load(), expected)

    def test_streaming_backend_roundtrip(self, rng):
        broker = SSTBroker("khi", queue_limit=8)
        writer = Series("khi", Access.CREATE, StreamingBackend(broker))
        expected = []
        for i in range(4):
            it = fill_iteration(writer.write_iteration(i), rng)
            expected.append((it.get_mesh("E")["x"].load().copy(), it.time))
            writer.close_iteration(i)
        writer.close()

        reader = Series("khi", Access.READ_LINEAR, StreamingBackend(broker))
        count = 0
        for it in reader.read_iterations():
            field, time = expected[count]
            np.testing.assert_allclose(it.get_mesh("E")["x"].load(), field)
            assert it.index == count
            assert it.time == time
            count += 1
        assert count == 4

    def test_streaming_iterations_consumed_once(self, rng):
        """Streamed data is dropped after being read (in-transit property)."""
        broker = SSTBroker("khi", queue_limit=8)
        writer = Series("khi", Access.CREATE, StreamingBackend(broker))
        fill_iteration(writer.write_iteration(0), rng)
        writer.close_iteration(0)
        writer.close()

        reader = Series("khi", Access.READ_LINEAR, StreamingBackend(broker))
        assert len(list(reader.read_iterations())) == 1
        assert len(list(reader.read_iterations())) == 0

    def test_access_mode_enforced(self, rng):
        backend = MemoryBackend()
        writer = Series("khi", Access.CREATE, backend)
        with pytest.raises(RuntimeError):
            list(writer.read_iterations())
        reader = Series("khi", Access.READ_LINEAR, backend)
        with pytest.raises(RuntimeError):
            reader.write_iteration(0)

    def test_closing_unknown_iteration(self):
        series = Series("khi", Access.CREATE, MemoryBackend())
        with pytest.raises(KeyError):
            series.close_iteration(3)

    def test_double_close_raises(self, rng):
        series = Series("khi", Access.CREATE, MemoryBackend())
        fill_iteration(series.write_iteration(0), rng)
        series.close_iteration(0)
        with pytest.raises(RuntimeError):
            series.write_iteration(0)
