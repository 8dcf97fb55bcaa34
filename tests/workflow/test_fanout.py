"""Edge-case tests of the fan-out layer: what each consumer's arrays share,
consumers leaving mid-run, back-pressure against a full bounded queue, and
a fan-out with no live downstream."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.producer import POINT_CLOUDS
from repro.streaming import broker as broker_module
from repro.streaming.broker import SSTBroker, StreamClosedError
from repro.streaming.step import Step
from repro.workflow import FanOutBroker, WorkflowBuilder
from tests.core.test_artificial_scientist import tiny_config


def make_step(index: int) -> Step:
    return Step(index, {"payload": np.arange(4, dtype=np.float64)})


class TestIsolation:
    def test_every_consumer_reads_the_same_arrays(self):
        first, second = SSTBroker("s#a"), SSTBroker("s#b")
        step = make_step(0)
        FanOutBroker("s", [first, second]).put_step(step)
        assert first.get_step() is second.get_step() is step

    def test_the_producer_streams_read_only_views(self):
        """Both consumers read the same arrays, a write to one raises, and
        the species' own arrays stay writable."""
        session = (WorkflowBuilder().config(tiny_config()).driver("serial")
                   .add_consumer("monitor", kind="histogram-monitor").build())
        session.simulation.step()
        mlapp, monitor = (session.brokers[name].get_step()
                          for name in ("mlapp", "monitor"))
        assert mlapp.arrays.keys() == monitor.arrays.keys()
        for path, data in mlapp.arrays.items():
            assert monitor.arrays[path] is data and not data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            monitor.arrays[POINT_CLOUDS][...] = 0.0
        electrons = session.simulation.get_species("electrons")
        assert electrons.positions.flags.writeable
        assert electrons.weights.flags.writeable


class TestZeroConsumers:
    def test_fanout_broker_requires_a_downstream(self):
        with pytest.raises(ValueError, match="at least one downstream"):
            FanOutBroker("stream", [])

    def test_put_with_every_queue_closed_raises(self):
        downstream = SSTBroker("s#only", queue_limit=2)
        fanout = FanOutBroker("s", [downstream])
        downstream.close()
        with pytest.raises(StreamClosedError, match="no live consumers"):
            fanout.put_step(make_step(0))
        assert downstream.queued_steps == 0


class TestConsumerUnregisteredMidRun:
    def test_surviving_consumers_keep_receiving(self):
        fast = SSTBroker("s#fast", queue_limit=8)
        doomed = SSTBroker("s#doomed", queue_limit=8)
        fanout = FanOutBroker("s", [fast, doomed])
        fanout.put_step(make_step(0))
        doomed.close()  # the consumer application goes away mid-run
        for index in (1, 2):
            fanout.put_step(make_step(index))
        assert fast.queued_steps == 3
        assert doomed.queued_steps == 1  # only what arrived before it left

    def test_session_survives_a_monitor_leaving_mid_run(self):
        session = (WorkflowBuilder().config(tiny_config(n_rep=1))
                   .driver("serial")
                   .add_consumer("monitor", kind="histogram-monitor")
                   .build())

        def unregister_monitor(sess, step_index):
            if step_index == 1:
                sess.brokers["monitor"].close()

        session.on_step.append(unregister_monitor)
        result = session.run(4)
        assert result.ok, (result.producer_exception,
                           result.consumer_exceptions)
        # the trainer saw every iteration even though the monitor left
        assert result.report.iterations_streamed == 4
        assert result.report.training_iterations == 4
        monitor = session.consumers["monitor"]
        assert monitor.iterations_consumed < 4

    def test_close_race_between_check_and_put_is_skipped(self):
        """A downstream closing between the ``closed`` check and the put is
        treated like any other departed consumer, not an error."""
        survivor = SSTBroker("s#a", queue_limit=4)
        racy = SSTBroker("s#b", queue_limit=4)
        original_put = racy.put_step

        def closing_put(step):
            racy.close()
            return original_put(step)

        racy.put_step = closing_put
        fanout = FanOutBroker("s", [survivor, racy])
        fanout.put_step(make_step(0))
        assert survivor.queued_steps == 1
        assert racy.queued_steps == 0


class TestSlowConsumerBackPressure:
    def test_full_bounded_queue_blocks_until_drained(self, monkeypatch):
        fast = SSTBroker("s#fast", queue_limit=8)
        slow = SSTBroker("s#slow", queue_limit=1)
        fanout = FanOutBroker("s", [fast, slow])
        fanout.put_step(make_step(0))  # fills the slow queue

        # with nobody draining, the tee times out on the full queue
        monkeypatch.setattr(broker_module, "TIMEOUT_S", 0.05)
        with pytest.raises(TimeoutError):
            fanout.put_step(make_step(1))

        # a reader draining the slow queue releases the writer
        monkeypatch.setattr(broker_module, "TIMEOUT_S", 5.0)
        release = threading.Timer(0.05, slow.get_step)
        release.start()
        try:
            fanout.put_step(make_step(2))
        finally:
            release.join()
        assert slow.queued_steps == 1
        assert fast.queued_steps >= 2

    def test_queue_depth_reports_the_slowest_consumer(self):
        fast = SSTBroker("s#fast", queue_limit=8)
        slow = SSTBroker("s#slow", queue_limit=8)
        fanout = FanOutBroker("s", [fast, slow])
        for index in range(3):
            fanout.put_step(make_step(index))
        fast.get_step()
        fast.get_step()
        assert fanout.queued_steps == 3  # the slow queue dominates
