"""Tests of the SST-like streaming substrate."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.streaming import NoOpConsumer, SSTBroker, Step
from repro.streaming import broker as broker_module
from repro.streaming.broker import StreamClosedError


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

    def test_block_policy_times_out(self, monkeypatch):
        monkeypatch.setattr(broker_module, "TIMEOUT_S", 0.05)
        broker = SSTBroker("s", queue_limit=1)
        broker.put_step(Step(index=0))
        with pytest.raises(TimeoutError):
            broker.put_step(Step(index=1))

    def test_blocking_producer_consumer_threads(self, rng):
        """Writer stalls on the bounded queue until the reader drains it."""
        broker = SSTBroker("s", queue_limit=2)
        n_steps = 10
        received = []

        def produce():
            for i in range(n_steps):
                broker.put_step(Step(i, {"x": np.full(100, float(i))}))
            broker.close()

        def consume():
            while (step := broker.get_step()) is not None:
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


class TestNoOpConsumer:
    def test_drains_stream_and_counts_bytes(self, rng):
        broker = SSTBroker("sim", queue_limit=10)
        for i in range(4):
            broker.put_step(Step(i, {"data": rng.random(1000)}))
        broker.close()
        consumer = NoOpConsumer(broker)
        consumed = sum(iter(consumer.run, 0))
        assert consumed == 4
        assert sum(consumer.step_bytes) == 4 * 8000
        assert len(consumer.step_times) == 4

    def test_max_steps_limit(self, rng):
        broker = SSTBroker("sim", queue_limit=10)
        for i in range(5):
            broker.put_step(Step(i, {"data": rng.random(10)}))
        broker.close()
        consumer = NoOpConsumer(broker)
        assert [consumer.run(), consumer.run()] == [1, 1]
        assert len(consumer.step_times) == 2
        assert broker.queued_steps == 3

