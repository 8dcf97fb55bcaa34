"""Tests of the composable WorkflowBuilder / WorkflowSession API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.producer import POINT_CLOUDS
from repro.workflow import consumers
from repro.workflow import (HistogramMonitorConsumer, WorkflowBuilder,
                            WorkflowSession, available_consumers,
                            get_consumer_factory)
from tests.core.test_artificial_scientist import tiny_config


def build_session(n_rep=1, driver="serial", **builder_calls):
    return WorkflowBuilder().config(tiny_config(n_rep=n_rep)).driver(driver).build()


class TestSessionBasics:
    def test_run_returns_uniform_result(self):
        result = build_session(n_rep=2).run(3)
        assert result.ok
        assert result.driver == "serial"
        report = result.report
        assert report.iterations_streamed == 3
        assert report.samples_streamed == 12
        assert report.training_iterations == 6
        assert "mlapp" in result.consumer_summaries
        assert result.consumer_summaries["mlapp"]["training_iterations"] == 6

    def test_session_matches_seed_accounting(self):
        """The default wiring reproduces the seed's run: the pinned values
        are what the seed's facade class (deleted in PR 16) returned for
        this config at the last commit that had it."""
        report = build_session(n_rep=1).run(3).report
        assert report.iterations_streamed == 3
        assert report.samples_streamed == 12
        assert report.training_iterations == 3
        np.testing.assert_allclose(
            report.loss_history_total,
            [1914.2640443888852, 2452.4674166891386, 2986.6987599697622],
            rtol=1e-9)
        again = build_session(n_rep=1).run(3).report
        assert list(again.loss_history_total) == list(report.loss_history_total)

    def test_run_twice_raises_session_already_consumed(self):
        session = build_session()
        session.run(2)
        with pytest.raises(RuntimeError, match="session already consumed"):
            session.run(1)

    def test_invalid_steps(self):
        session = build_session()
        with pytest.raises(ValueError):
            session.run(0)
        # a failed validation does not consume the session
        assert session.run(1).ok

    def test_evaluate_after_run(self):
        session = build_session()
        session.run(3, keep_for_evaluation=2)
        report = session.evaluate(n_posterior_samples=2)
        assert report.n_evaluation_samples > 0

    def test_builder_preset_and_driver_names(self):
        session = (WorkflowBuilder().preset("bench-tiny")
                   .driver("pipelined").build())
        assert session.driver.name == "pipelined"
        assert session.config.ml.model.n_input_points == 48

    def test_builder_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="valid presets"):
            WorkflowBuilder().preset("gigantic")
        with pytest.raises(ValueError, match="valid drivers"):
            WorkflowBuilder().driver("quantum")
        with pytest.raises(ValueError, match="valid kinds"):
            WorkflowBuilder().add_consumer("x", kind="does-not-exist")

    def test_consumer_kinds_are_the_registry(self):
        assert available_consumers() == ("histogram-monitor", "mlapp")
        assert all(callable(get_consumer_factory(kind))
                   for kind in available_consumers())
        with pytest.raises(ValueError,
                           match="valid kinds: histogram-monitor, mlapp$"):
            get_consumer_factory("custom")


class TestFanOut:
    def test_two_consumers_see_every_iteration(self):
        session = (WorkflowBuilder().config(tiny_config(n_rep=1))
                   .driver("serial")
                   .add_consumer("monitor", kind="histogram-monitor")
                   .build())
        result = session.run(4)
        assert result.ok
        assert result.report.iterations_streamed == 4
        monitor = session.consumers["monitor"]
        assert isinstance(monitor, HistogramMonitorConsumer)
        assert monitor.iterations_consumed == 4
        assert monitor.samples_consumed == result.report.samples_streamed
        assert sum(monitor.momentum_counts) > 0
        # the trainer is unaffected by the second consumer
        assert result.report.training_iterations == 4

    def test_consumers_get_isolated_buffers(self, monkeypatch):
        """A consumer mutating its loaded arrays must not affect the trainer."""
        class VandalConsumer(HistogramMonitorConsumer):
            def consume(self, max_iterations=None, on_iteration=None):
                consumed = 0
                for step in self.series.read_iterations():
                    step.arrays[POINT_CLOUDS][...] = 1e9  # corrupt in place
                    self.iterations_consumed += 1
                    consumed += 1
                    if max_iterations and consumed >= max_iterations:
                        break
                return consumed

        monkeypatch.setitem(consumers._CONSUMER_FACTORIES, "vandal",
                            lambda name, series, s, rng: VandalConsumer(name, series))

        def run_losses(with_vandal):
            builder = WorkflowBuilder().config(tiny_config(n_rep=1)).driver("serial")
            if with_vandal:
                builder.add_consumer("vandal", kind="vandal")
            result = builder.build().run(3)
            assert result.ok
            return result.report.loss_history_total

        np.testing.assert_array_equal(run_losses(True), run_losses(False))

    def test_duplicate_consumer_names_rejected(self):
        builder = (WorkflowBuilder().config(tiny_config())
                   .add_consumer("mlapp", kind="histogram-monitor"))
        with pytest.raises(ValueError, match="duplicate consumer names"):
            builder.build()


class TestHooks:
    def test_lifecycle_hooks_fire(self):
        events = {"steps": [], "iterations": []}
        session = (
            WorkflowBuilder().config(tiny_config())
            .on_step(lambda s, i: events["steps"].append(i))
            .on_iteration_consumed(
                lambda s, name, index, n: events["iterations"].append((name, index, n)))
            .build())
        session.run(3)
        assert events["steps"] == [0, 1, 2]
        assert len(events["iterations"]) == 3
        assert all(name == "mlapp" and n == 4 for name, _, n in events["iterations"])

    def test_iteration_hook_fires_per_consumer(self):
        names = []
        session = (
            WorkflowBuilder().config(tiny_config())
            .add_consumer("monitor", kind="histogram-monitor")
            .on_iteration_consumed(lambda s, name, index, n: names.append(name))
            .build())
        assert session.run(2).ok
        assert names.count("mlapp") == 2
        assert names.count("monitor") == 2


class TestSessionAccessors:
    def test_seed_compatible_surface(self):
        session = build_session()
        assert session.mlapp is session.consumers["mlapp"].mlapp
        assert session.model is session.mlapp.model
        assert session.primary_name == WorkflowSession.PRIMARY_CONSUMER
