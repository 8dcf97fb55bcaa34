"""Edge-case tests of the fan-out layer: what each consumer's arrays share,
consumers leaving mid-run, back-pressure against a full bounded queue, and
zero-consumer sessions."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.streaming import broker as broker_module
from repro.streaming.broker import SSTBroker, StreamClosedError
from repro.streaming.step import Step
from repro.workflow import FanOutBroker, WorkflowBuilder, WorkflowSession
from repro.workflow.builder import WorkflowHooks
from repro.workflow.drivers import SerialDriver
from tests.core.test_artificial_scientist import tiny_config


def make_step(index: int) -> Step:
    return Step(index, {"payload": np.arange(4, dtype=np.float64)})


class TestIsolation:
    def test_first_consumer_shares_the_producers_arrays(self):
        first, second = SSTBroker("s#a"), SSTBroker("s#b")
        step = make_step(0)
        FanOutBroker("s", [first, second]).put_step(step)
        produced = step.arrays["payload"]
        assert np.shares_memory(first.get_step().arrays["payload"], produced)
        assert not np.shares_memory(second.get_step().arrays["payload"],
                                    produced)

    def test_mutating_one_consumers_array_leaves_the_others_intact(self):
        first, second, third = (SSTBroker(f"s#{n}") for n in "abc")
        FanOutBroker("s", [first, second, third]).put_step(make_step(0))
        steps = [broker.get_step() for broker in (first, second, third)]
        steps[1].arrays["payload"][:] = -1.0
        expected = np.arange(4, dtype=np.float64)
        np.testing.assert_array_equal(steps[0].arrays["payload"], expected)
        np.testing.assert_array_equal(steps[2].arrays["payload"], expected)
        assert steps[2].index == 0 and steps[2].nbytes == steps[0].nbytes


class TestZeroConsumers:
    def test_fanout_broker_requires_a_downstream(self):
        with pytest.raises(ValueError, match="at least one downstream"):
            FanOutBroker("stream", [])

    def test_session_requires_a_consumer(self):
        with pytest.raises(ValueError, match="at least one consumer"):
            WorkflowSession(tiny_config(), SerialDriver(), [], WorkflowHooks())

    def test_put_with_every_queue_closed_raises(self):
        downstream = SSTBroker("s#only", queue_limit=2)
        fanout = FanOutBroker("s", [downstream])
        downstream.close()
        with pytest.raises(StreamClosedError, match="no live consumers"):
            fanout.put_step(make_step(0))
        # nothing was accounted for the failed put
        assert fanout.steps_written == 0


class TestConsumerUnregisteredMidRun:
    def test_surviving_consumers_keep_receiving(self):
        fast = SSTBroker("s#fast", queue_limit=8)
        doomed = SSTBroker("s#doomed", queue_limit=8)
        fanout = FanOutBroker("s", [fast, doomed])
        fanout.put_step(make_step(0))
        doomed.close()  # the consumer application goes away mid-run
        for index in (1, 2):
            fanout.put_step(make_step(index))
        assert fanout.steps_written == 3
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

        session.hooks.on_step.append(unregister_monitor)
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
        assert fanout.steps_written == 1


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
