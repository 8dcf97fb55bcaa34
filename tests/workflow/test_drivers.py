"""Tests of the execution-driver strategy layer (serial/pipelined)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.telemetry import SpanRecorder, recording, span
from repro.workflow import (PipelinedDriver, WorkflowBuilder, available_drivers,
                            get_driver)
from tests.core.test_artificial_scientist import tiny_config


def run_with(driver, n_steps=3, n_rep=1, **kwargs):
    session = (WorkflowBuilder().config(tiny_config(n_rep=n_rep))
               .driver(driver, **kwargs).build())
    return session.run(n_steps)


def crash_both_sides():
    """A pipelined run whose producer crashes and then its consumer; the
    result and the two exceptions raised."""
    session = WorkflowBuilder().config(tiny_config()).driver("pipelined").build()
    producer_boom = RuntimeError("producer crash")
    consumer_boom = RuntimeError("consumer crash")
    producer_failed = threading.Event()

    def exploding_step():
        producer_failed.set()
        raise producer_boom

    def exploding_consume(max_iterations=None, on_iteration=None):
        # a consumer dying first would stop the producer before it steps
        assert producer_failed.wait(timeout=30)
        raise consumer_boom
    session.simulation.step = exploding_step
    session.consumers["mlapp"].consume = exploding_consume
    return session.run(2), producer_boom, consumer_boom


class TestDriverParity:
    @pytest.mark.parametrize("driver", available_drivers())
    def test_every_driver_same_schema_and_accounting(self, driver):
        result = run_with(driver)
        assert result.ok, (result.producer_exception, result.consumer_exceptions)
        assert result.driver == driver
        report = result.report
        assert report.iterations_streamed == 3
        assert report.samples_streamed == 12
        assert report.training_iterations == 3
        assert report.bytes_streamed > 0
        assert report.final_losses["total"] > 0

    def test_all_drivers_identical_summary_keys(self):
        summaries = [set(run_with(d).report.summary()) for d in available_drivers()]
        assert all(keys == summaries[0] for keys in summaries)
        results = [run_with(d) for d in available_drivers()]
        assert all(set(r.summary()) == set(results[0].summary()) for r in results)

    def test_drivers_train_identically_for_the_same_seed(self):
        """The concurrent driver reorders nothing the trainer can see."""
        serial = run_with("serial", n_steps=4, n_rep=2).report
        pipelined = run_with("pipelined", n_steps=4, n_rep=2).report
        assert list(pipelined.loss_history_total) == \
            list(serial.loss_history_total)

    def test_queue_depth_respects_limit(self):
        result = run_with("pipelined", n_steps=4)
        session_limit = tiny_config().streaming.queue_limit
        assert 0 <= result.max_queue_depth <= session_limit

    def test_pipelined_bounds_in_flight(self):
        result = run_with("pipelined", n_steps=5, max_in_flight=2)
        assert result.ok
        assert result.report.iterations_streamed == 5
        assert result.queue_depth_samples  # the timeline is recorded
        assert max(result.queue_depth_samples) <= 2

    def test_pipelined_rejects_bad_in_flight(self):
        with pytest.raises(ValueError):
            PipelinedDriver(max_in_flight=0)

    def test_get_driver_error_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            get_driver("warp")
        for name in available_drivers():
            assert name in str(excinfo.value)


class TestTiming:
    @pytest.mark.parametrize("driver", available_drivers())
    def test_the_report_reads_the_session_timer(self, driver):
        session = (WorkflowBuilder().config(tiny_config()).driver(driver)
                   .add_consumer("monitor", kind="histogram-monitor").build())
        recorder = SpanRecorder()
        with recording(recorder):
            report = session.run(3).report
        totals = session.timer.totals()
        assert set(totals) == {"pic", "mlapp", "monitor"}
        assert [span.name for span in recorder.spans].count("workflow.pic") == 3
        assert report.simulation_time == totals["pic"]
        assert report.training_time == totals["mlapp"]

    @pytest.mark.parametrize("driver", available_drivers())
    def test_on_step_hooks_run_outside_the_timed_step(self, driver):
        def hook(session, index):
            with span("hook", {}, None):
                pass
        session = (WorkflowBuilder().config(tiny_config()).driver(driver)
                   .on_step(hook).build())
        recorder = SpanRecorder()
        with recording(recorder), span("execute", {}, None):
            assert session.run(2).ok
        parents = {s.span_id: s.name for s in recorder.spans}
        hooks = [s for s in recorder.spans if s.name == "hook"]
        assert len(hooks) == 2
        assert all(parents[s.parent_id] == "execute" for s in hooks)
        assert sum(s.name == "workflow.pic" for s in recorder.spans) == 2

    def test_a_consumer_may_not_take_the_simulation_section_name(self):
        with pytest.raises(ValueError, match="'pic'"):
            (WorkflowBuilder().config(tiny_config())
             .add_consumer("pic", kind="histogram-monitor").build())


class TestFailureSurfacing:
    def test_producer_failure_is_captured_not_raised(self):
        session = WorkflowBuilder().config(tiny_config()).driver("pipelined").build()
        boom = RuntimeError("simulated producer crash")

        def exploding_step():
            raise boom
        session.simulation.step = exploding_step
        result = session.run(3)
        assert result.producer_exception is boom
        assert not result.consumer_exceptions

    def test_consumer_failure_is_captured_per_name(self):
        session = WorkflowBuilder().config(tiny_config()).driver("serial").build()
        boom = RuntimeError("simulated consumer crash")

        def exploding_consume(max_iterations=None, on_iteration=None):
            raise boom
        session.consumers["mlapp"].consume = exploding_consume
        result = session.run(2)
        assert result.consumer_exceptions == {"mlapp": boom}
        assert not result.ok
        # the secondary "no live consumers left" stream shutdown must not be
        # misreported as a producer failure (it would mask the root cause)
        assert result.producer_exception is None
        with pytest.raises(RuntimeError, match="simulated consumer crash"):
            result.raise_if_failed()

    @pytest.mark.parametrize("driver", available_drivers())
    def test_a_nan_position_mid_run_fails_the_run(self, driver):
        """A momentum that goes NaN after step 2 makes step 3's new position
        NaN: the deposit refuses it, the run ends not ok with that producer
        error, and no NaN sample was streamed or trained on."""
        session = WorkflowBuilder().config(tiny_config()).driver(driver).build()
        simulation = session.simulation
        step = simulation.step

        def step_with_fault():
            if simulation.step_index == 2:
                simulation.species[0].momenta[5, 0] = np.nan
            step()
        simulation.step = step_with_fault
        result = session.run(5)
        assert not result.ok
        assert isinstance(result.producer_exception, ValueError)
        assert "less than one cell" in str(result.producer_exception)
        assert not result.consumer_exceptions
        assert simulation.step_index == 2
        assert result.report.iterations_streamed == 2
        assert np.all(np.isfinite(simulation.grid.Jx))
        assert np.all(np.isfinite(list(result.report.loss_history_total)))

    def test_both_failures_surfaced_together(self):
        result, _, _ = crash_both_sides()
        assert isinstance(result.producer_exception, RuntimeError)
        assert isinstance(result.consumer_exceptions.get("mlapp"), RuntimeError)
        with pytest.raises(RuntimeError):
            result.raise_if_failed()

    def test_last_consumer_dying_first_stops_the_producer_cleanly(self):
        """The other interleaving: with nobody left to stream to the
        producer stops, and the stream closing under it is not reported as
        a producer failure."""
        session = WorkflowBuilder().config(tiny_config()).driver("pipelined").build()
        consumer_boom = RuntimeError("consumer crash")
        consumer_failed = threading.Event()
        real_step = session.simulation.step

        def exploding_consume(max_iterations=None, on_iteration=None):
            consumer_failed.set()
            raise consumer_boom

        def late_step():
            assert consumer_failed.wait(timeout=30)
            real_step()
        session.consumers["mlapp"].consume = exploding_consume
        session.simulation.step = late_step
        result = session.run(3)
        assert result.consumer_exceptions == {"mlapp": consumer_boom}
        assert result.producer_exception is None
        with pytest.raises(RuntimeError, match="consumer crash"):
            result.raise_if_failed()

    def test_surviving_consumer_keeps_stream_alive(self):
        """One consumer dying must not starve the other (fan-out resilience)."""
        session = (WorkflowBuilder().config(tiny_config())
                   .driver("pipelined")
                   .add_consumer("monitor", kind="histogram-monitor")
                   .build())

        def exploding_consume(max_iterations=None, on_iteration=None):
            raise RuntimeError("monitor crash")
        session.consumers["monitor"].consume = exploding_consume
        result = session.run(3)
        assert "monitor" in result.consumer_exceptions
        assert result.producer_exception is None
        assert result.report.iterations_streamed == 3
        assert result.report.training_iterations == 3


class TestLegacyThreadedRunner:
    """What the seed's concurrent runner guaranteed, on the one concurrent
    driver that is left."""

    def test_seed_result_still_produced(self):
        result = run_with("pipelined")
        assert result.ok
        assert not result.consumer_exceptions
        assert result.report.iterations_streamed == 3

    def test_runner_surfaces_both_exceptions(self):
        result, producer_boom, consumer_boom = crash_both_sides()
        assert result.producer_exception is producer_boom
        assert result.consumer_exceptions == {"mlapp": consumer_boom}
        assert not result.ok

    def test_runner_marks_session_consumed(self):
        session = WorkflowBuilder().config(tiny_config(n_rep=1)).driver("pipelined").build()
        session.run(2)
        with pytest.raises(RuntimeError, match="session already consumed"):
            session.run(1)
