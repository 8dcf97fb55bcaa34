"""Tests of the SST-like streaming substrate."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.streaming import (ModeledDataPlane, NoOpConsumer, SSTBroker, Step,
                             make_data_plane, measure_stream_throughput)
from repro.streaming.broker import StreamClosedError
from repro.streaming.throughput import remove_outliers


class TestVariableAndStep:
    def test_step_bookkeeping(self, rng):
        assert Step(index=3).nbytes == 0
        step = Step(3, {"a": rng.random(5),
                        "b": np.zeros((2, 3), dtype=np.float32)}, {"time": 1.5})
        assert step.nbytes == 5 * 8 + 6 * 4
        assert list(step.arrays) == ["a", "b"]
        assert step.attributes == {"time": 1.5}


class TestBroker:
    def test_fifo_order(self):
        broker = SSTBroker("s", queue_limit=4)
        for i in range(3):
            broker.put_step(Step(index=i))
        assert broker.get_step().index == 0
        assert broker.get_step().index == 1
        assert broker.queued_steps == 1

    def test_end_of_stream(self):
        broker = SSTBroker("s")
        broker.put_step(Step(index=0))
        broker.close()
        assert broker.get_step() is not None
        assert broker.get_step() is None

    def test_put_after_close_raises(self):
        broker = SSTBroker("s")
        broker.close()
        with pytest.raises(StreamClosedError):
            broker.put_step(Step(index=0))

    def test_block_policy_times_out(self):
        broker = SSTBroker("s", queue_limit=1)
        broker.put_step(Step(index=0))
        with pytest.raises(TimeoutError):
            broker.put_step(Step(index=1), timeout=0.05)

    def test_blocking_producer_consumer_threads(self, rng):
        """Writer stalls on the bounded queue until the reader drains it."""
        broker = SSTBroker("s", queue_limit=2)
        n_steps = 10
        received = []

        def produce():
            for i in range(n_steps):
                broker.put_step(Step(i, {"x": np.full(100, float(i))}),
                                timeout=10)
            broker.close()

        def consume():
            while (step := broker.get_step(timeout=10)) is not None:
                received.append(float(step.arrays["x"][0]))

        producer = threading.Thread(target=produce)
        consumer = threading.Thread(target=consume)
        producer.start()
        consumer.start()
        producer.join(timeout=10)
        consumer.join(timeout=10)
        assert received == [float(i) for i in range(n_steps)]

    def test_invalid_queue_limit(self):
        with pytest.raises(ValueError):
            SSTBroker("s", queue_limit=0)


class TestDataPlanes:
    def test_modeled_time_increases_with_bytes(self):
        # seeded: the plane's 12 % jitter otherwise fails this ~1 run in 100
        plane = make_data_plane("mpi", rng=0)
        assert plane.transfer_time(2 * 10**9, n_nodes=100) > \
            plane.transfer_time(10**9, n_nodes=100) * 1.2

    def test_contention_reduces_bandwidth(self):
        plane = make_data_plane("mpi")
        assert plane.effective_bandwidth(9126) < plane.effective_bandwidth(4096)

    def test_libfabric_all_at_once_fails_at_full_scale(self):
        plane = make_data_plane("libfabric")
        assert plane.supports(4096, "all_at_once")
        assert not plane.supports(9126, "all_at_once")
        with pytest.raises(RuntimeError):
            plane.effective_bandwidth(9126, "all_at_once")

    def test_calibration_matches_paper_per_node_ranges(self):
        """Per-node throughputs fall in the ranges reported in Section IV-B."""
        libfabric = make_data_plane("libfabric")
        mpi = make_data_plane("mpi")
        gb = 1e9
        assert 3.5 <= libfabric.effective_bandwidth(4096, "all_at_once") / gb <= 4.7
        assert 1.9 <= libfabric.effective_bandwidth(9126, "batched") / gb <= 2.6
        assert 2.6 <= mpi.effective_bandwidth(4096) / gb <= 3.7
        assert 2.4 <= mpi.effective_bandwidth(9126) / gb <= 3.3

    def test_bandwidth_capped_at_nic_limit(self):
        plane = ModeledDataPlane(base_bandwidth=1e12, latency=0.0, jitter=0.0)
        assert plane.effective_bandwidth(1) == pytest.approx(25e9)

    def test_unknown_plane(self):
        with pytest.raises(ValueError):
            make_data_plane("infiniband-magic")


class TestNoOpConsumer:
    def test_drains_stream_and_counts_bytes(self, rng):
        broker = SSTBroker("sim", queue_limit=10)
        for i in range(4):
            broker.put_step(Step(i, {"data": rng.random(1000)}))
        broker.close()
        consumer = NoOpConsumer(broker)
        consumed = consumer.run()
        assert consumed == 4
        assert consumer.total_bytes == 4 * 8000
        assert consumer.mean_step_time >= 0.0

    def test_max_steps_limit(self, rng):
        broker = SSTBroker("sim", queue_limit=10)
        for i in range(5):
            broker.put_step(Step(i, {"data": rng.random(10)}))
        broker.close()
        consumer = NoOpConsumer(broker)
        assert consumer.run(max_steps=2) == 2
        assert broker.queued_steps == 3


class TestThroughput:
    def test_result_properties(self):
        result = measure_stream_throughput([2.0, 2.5, 4.0], n_nodes=100,
                                           bytes_per_node=5.86e9, data_plane="mpi")
        assert result.global_bytes == pytest.approx(586e9)
        assert result.median_throughput == pytest.approx(586e9 / 2.5)
        assert result.max_throughput == pytest.approx(586e9 / 2.0)
        assert result.per_node_throughput.shape == (3,)
        assert result.terabytes_per_second() == pytest.approx(586e9 / 2.5 / 1e12)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_stream_throughput([], 1, 1.0)
        with pytest.raises(ValueError):
            measure_stream_throughput([0.0], 1, 1.0)
        with pytest.raises(ValueError):
            measure_stream_throughput([1.0], 0, 1.0)

    def test_remove_outliers(self):
        values = [1.0] * 50 + [1000.0]
        cleaned = remove_outliers(values, n_sigma=4.0)
        assert 1000.0 not in cleaned
        assert len(cleaned) == 50

    def test_remove_outliers_keeps_constant_series(self):
        assert remove_outliers([2.0, 2.0, 2.0]) == [2.0, 2.0, 2.0]
