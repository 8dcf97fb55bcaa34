"""Tests of checkpointing, the concurrent (threaded) run and the CLI."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.continual import InTransitTrainer, TrainingBuffer, TrainingSample
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.mlcore.optim import Adam
from repro.models import ArtificialScientistModel, ModelConfig
from repro.workflow import WorkflowBuilder
from tests.core.test_artificial_scientist import tiny_config


SMALL = ModelConfig(n_input_points=24, encoder_channels=(12, 24), encoder_head_hidden=16,
                    latent_dim=16, decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                    spectrum_dim=8, inn_blocks=2, inn_hidden=(16,))


def make_trained_trainer(rng, n_iterations=3):
    model = ArtificialScientistModel(SMALL, rng=rng)
    trainer = InTransitTrainer(model, Adam(model.parameters(), lr=1e-3),
                               TrainingBuffer(rng=rng), n_rep=1)
    samples = [TrainingSample(point_cloud=rng.normal(size=(SMALL.n_input_points, 6)),
                              spectrum=rng.random(SMALL.spectrum_dim), step=i,
                              region="approaching")
               for i in range(n_iterations)]
    for i, sample in enumerate(samples):
        trainer.train_on_stream_step([sample], step=i)
    return model, trainer


class TestCheckpoint:
    def test_roundtrip_restores_model_and_buffer(self, rng, tmp_path):
        model, trainer = make_trained_trainer(rng)
        directory = str(tmp_path / "ckpt")
        info = save_checkpoint(directory, model, trainer, step=3)
        assert info.training_iterations == 3
        assert os.path.exists(info.manifest_path)

        fresh_model = ArtificialScientistModel(SMALL, rng=np.random.default_rng(99))
        fresh_trainer = InTransitTrainer(fresh_model,
                                         Adam(fresh_model.parameters(), lr=1e-3),
                                         TrainingBuffer(rng=np.random.default_rng(98)),
                                         n_rep=1)
        manifest = load_checkpoint(directory, fresh_model, fresh_trainer)
        assert manifest["step"] == 3
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(fresh_model.state_dict()[name], value)
        assert len(fresh_trainer.buffer) == len(trainer.buffer)
        assert len(fresh_trainer.history) == len(trainer.history)
        # the restored trainer can continue training immediately
        fresh_trainer.train_iteration(step=4)

    def test_load_missing_checkpoint(self, rng, tmp_path):
        model = ArtificialScientistModel(SMALL, rng=rng)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "missing"), model)

    def test_model_only_load(self, rng, tmp_path):
        model, trainer = make_trained_trainer(rng)
        directory = str(tmp_path / "ckpt2")
        save_checkpoint(directory, model, trainer, step=1)
        other = ArtificialScientistModel(SMALL, rng=np.random.default_rng(5))
        load_checkpoint(directory, other)
        np.testing.assert_allclose(other.state_dict()["vae.encoder.mu_head.net.0.weight"],
                                   model.state_dict()["vae.encoder.mu_head.net.0.weight"])


class TestThreadedRunner:
    def test_concurrent_run_matches_sequential_accounting(self):
        session = (WorkflowBuilder().config(tiny_config(n_rep=1))
                   .driver("pipelined").build())
        result = session.run(3)
        assert result.producer_exception is None
        report = result.report
        assert report.iterations_streamed == 3
        assert report.training_iterations == 3  # n_rep=1
        assert report.samples_streamed == 12
        assert result.max_queue_depth <= session.broker.queue_limit

    def test_invalid_steps(self):
        session = WorkflowBuilder().config(tiny_config()).driver("pipelined").build()
        with pytest.raises(ValueError):
            session.run(0)


class TestCLI:
    def test_khi_info(self, capsys):
        assert cli_main(["khi-info"]) == 0
        out = capsys.readouterr().out
        assert "192x256x12" in out
        assert "beta = 0.2" in out

    def test_fom_scan(self, capsys):
        assert cli_main(["fom-scan"]) == 0
        out = capsys.readouterr().out
        assert "65.3" in out and "Frontier" in out

    def test_streaming_study(self, capsys):
        assert cli_main(["streaming-study"]) == 0
        out = capsys.readouterr().out
        assert "libfabric" in out and "mpi" in out and "orion-filesystem" in out

    def test_ddp_scan(self, capsys):
        assert cli_main(["ddp-scan"]) == 0
        out = capsys.readouterr().out
        assert "3072" in out
        assert "deficit attribution" in out

    def test_placement(self, capsys):
        assert cli_main(["placement", "--nodes", "8"]) == 0
        out = capsys.readouterr().out
        assert "intra_node" in out and "inter_node" in out

    def test_run_small_workflow(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        code = cli_main(["run", "--steps", "2", "--grid", "6", "12", "2",
                         "--particles-per-cell", "3", "--n-rep", "1",
                         "--checkpoint", checkpoint])
        assert code == 0
        out = capsys.readouterr().out
        assert "iterations_streamed" in out
        assert os.path.exists(os.path.join(checkpoint, "manifest.json"))

    def test_run_threaded(self, capsys):
        code = cli_main(["run", "--steps", "2", "--grid", "6", "12", "2",
                         "--particles-per-cell", "3", "--n-rep", "1",
                         "--driver", "pipelined"])
        assert code == 0
        assert "max stream queue depth" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["does-not-exist"])
