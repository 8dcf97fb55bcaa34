"""End-to-end integration tests of the coupled Artificial-Scientist workflow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MLConfig, StreamingConfig, WorkflowConfig
from repro.core.mlapp import MLApp
from repro.models.config import ModelConfig
from repro.openpmd import DirectoryStore, Series
from repro.streaming import SSTBroker
from repro.pic.khi import KHIConfig
from repro.workflow import WorkflowBuilder


def tiny_config(n_rep=1, queue_limit=4):
    model = ModelConfig(n_input_points=24, encoder_channels=(12, 24),
                        encoder_head_hidden=16, latent_dim=16,
                        decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                        spectrum_dim=8, inn_blocks=2, inn_hidden=(16,))
    return WorkflowConfig(
        khi=KHIConfig(grid_shape=(6, 12, 2), particles_per_cell=3, seed=9),
        ml=MLConfig(model=model, n_rep=n_rep, base_learning_rate=1e-3),
        streaming=StreamingConfig(queue_limit=queue_limit),
        region_counts=(1, 4, 1),
        n_detector_directions=1,
        seed=123,
    )


def run_report(session, n_steps, **kwargs):
    """Run a session to its report, raising whatever either side raised."""
    result = session.run(n_steps, **kwargs)
    result.raise_if_failed()
    return result.report


def default_session(config):
    """The seed wiring: one producer, one stream, the MLapp, serial driver."""
    return WorkflowBuilder().config(config).driver("serial").build()


class TestArtificialScientistWorkflow:
    def test_coupled_run_trains_in_transit(self):
        report = run_report(default_session(tiny_config(n_rep=2)), 3)
        # every simulation step produced one streamed iteration with 4 regions
        assert report.n_steps == 3
        assert report.iterations_streamed == 3
        assert report.samples_streamed == 12
        # n_rep iterations per streamed step
        assert report.training_iterations == 3 * 2
        assert report.bytes_streamed > 0
        assert report.final_losses["total"] > 0
        assert report.wall_time >= report.simulation_time

    def test_report_summary_keys(self):
        report = run_report(default_session(tiny_config()), 2)
        summary = report.summary()
        assert {"steps", "iterations_streamed", "training_iterations",
                "streamed_megabytes", "final_total_loss"} <= set(summary)
        assert summary["streamed_megabytes"] > 0

    def test_no_intermediate_files_written(self, tmp_path, monkeypatch):
        """The in-transit workflow writes nothing to disk."""
        monkeypatch.chdir(tmp_path)
        run_report(default_session(tiny_config()), 2)
        assert list(tmp_path.iterdir()) == []

    def test_evaluation_after_run(self):
        session = default_session(tiny_config(n_rep=1))
        run_report(session, 3, keep_for_evaluation=2)
        report = session.evaluate(n_posterior_samples=2)
        assert sum(ev.n_samples for ev in report.regions.values()) > 0
        assert len(report.regions) >= 1
        assert report.surrogate_spectrum_mse >= 0.0

    def test_evaluate_requires_samples(self):
        with pytest.raises(RuntimeError):
            default_session(tiny_config()).evaluate()

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            default_session(tiny_config()).run(0)

    def test_loss_improves_over_stream(self):
        """In-transit training reduces the loss over the streamed steps."""
        report = run_report(default_session(tiny_config(n_rep=4)), 10)
        losses = np.asarray(report.loss_history_total)
        first = losses[: 4].mean()
        last = losses[-4:].mean()
        assert last < first


def produce(cfg, broker, n_steps):
    """Run the producer plugin alone for ``n_steps`` onto ``broker``."""
    from repro.core import RegionPartition, StreamingProducerPlugin
    from repro.pic.khi import make_khi_simulation
    from repro.radiation.detector import RadiationDetector

    sim = make_khi_simulation(cfg.khi)
    detector = RadiationDetector.for_khi(density=cfg.khi.density,
                                         n_directions=1, n_frequencies=8)
    partition = RegionPartition(cfg.khi.grid_config, cfg.region_counts)
    sim.add_plugin(StreamingProducerPlugin(Series(broker), detector, partition,
                                           n_points=cfg.ml.model.n_input_points,
                                           rng=0))
    sim.run(n_steps)


class TestMLAppStandalone:
    def test_mlapp_consumes_a_broker(self, rng):
        """The MLapp trains on whatever a series reads: here a broker the
        producer has filled and closed before the MLapp starts."""
        cfg = tiny_config()
        broker = SSTBroker("khi", queue_limit=2)
        produce(cfg, broker, 2)

        mlapp = MLApp(Series(broker), cfg.ml, rng=rng)
        consumed = mlapp.consume()
        assert consumed == 2
        assert mlapp.trainer.samples_consumed == 8
        assert len(mlapp.history) == 2 * cfg.ml.n_rep
        assert mlapp.loss_summary()["total"] > 0

    def test_mlapp_trains_alike_from_files_and_from_the_stream(self, tmp_path):
        """The file-based workflow — the classical offline one retained for
        comparison — feeds the MLapp the same samples as the stream."""
        cfg = tiny_config()
        broker = SSTBroker("khi", queue_limit=2)
        produce(cfg, broker, 2)
        produce(cfg, DirectoryStore(str(tmp_path)), 2)

        def losses(series):
            mlapp = MLApp(series, cfg.ml, rng=np.random.default_rng(3))
            assert mlapp.consume() == 2
            return mlapp.history.series("total")

        np.testing.assert_array_equal(
            losses(Series(DirectoryStore(str(tmp_path)))), losses(Series(broker)))
