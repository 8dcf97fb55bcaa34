"""Tests of checkpointing, the concurrent (threaded) run and the CLI."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.continual import InTransitTrainer, TrainingBuffer, TrainingSample
from repro.core import checkpoint
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.mlcore.optim import Adam
from repro.models import ArtificialScientistModel, CombinedLoss, ModelConfig
from repro.workflow import WorkflowBuilder
from tests.core.test_artificial_scientist import tiny_config


SMALL = ModelConfig(n_input_points=24, encoder_channels=(12, 24), encoder_head_hidden=16,
                    latent_dim=16, decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                    spectrum_dim=8, inn_blocks=2, inn_hidden=(16,))


def make_trained_trainer(rng, n_iterations=3):
    model = ArtificialScientistModel(SMALL, rng=rng)
    trainer = InTransitTrainer(model, Adam(model.parameters(), lr=1e-3),
                               TrainingBuffer(rng=rng), CombinedLoss(), n_rep=1)
    samples = [TrainingSample(point_cloud=rng.normal(size=(SMALL.n_input_points, 6)),
                              spectrum=rng.random(SMALL.spectrum_dim), step=i,
                              region="approaching")
               for i in range(n_iterations)]
    for i, sample in enumerate(samples):
        trainer.train_on_stream_step([sample], step=i)
    return model, trainer


def trainer_for(model):
    """A fresh trainer of ``model`` for a checkpoint to load into."""
    return InTransitTrainer(model, Adam(model.parameters(), lr=1e-3),
                            TrainingBuffer(rng=np.random.default_rng(98)),
                            CombinedLoss(), n_rep=1)


class TestCheckpoint:
    def test_roundtrip_restores_model_and_buffer(self, rng, tmp_path):
        model, trainer = make_trained_trainer(rng)
        directory = str(tmp_path / "ckpt")
        info = save_checkpoint(directory, model, trainer, step=3)
        assert info.training_iterations == 3
        assert os.path.exists(os.path.join(info.directory, "manifest.json"))

        fresh_model = ArtificialScientistModel(SMALL, rng=np.random.default_rng(99))
        fresh_trainer = InTransitTrainer(fresh_model,
                                         Adam(fresh_model.parameters(), lr=1e-3),
                                         TrainingBuffer(rng=np.random.default_rng(98)),
                                         CombinedLoss(),
                                         n_rep=1)
        manifest = load_checkpoint(directory, fresh_model, fresh_trainer)
        assert manifest["step"] == 3
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(fresh_model.state_dict()[name], value)
        assert len(fresh_trainer.buffer) == len(trainer.buffer)
        assert len(fresh_trainer.history) == len(trainer.history)
        # the restored trainer can continue training immediately
        fresh_trainer.train_iteration(step=4)

    @pytest.mark.parametrize("failing_write", [1, 2, 3])
    def test_a_failed_save_leaves_the_previous_checkpoint_intact(
            self, rng, tmp_path, monkeypatch, failing_write):
        """A save that fails at any of its three ``.npz`` writes commits
        nothing: the previous manifest and every previous weight load."""
        model, trainer = make_trained_trainer(rng)
        directory = str(tmp_path / "ckpt")
        save_checkpoint(directory, model, trainer, step=3)
        saved_weights = model.state_dict()
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
            saved_manifest = handle.read()

        for p in model.parameters():
            p.data += 1.0
        trainer.train_iteration(step=4)
        writes = []
        original = checkpoint._save_npz

        def flaky(path, arrays):
            writes.append(path)
            if len(writes) == failing_write:
                raise OSError("disk full")
            original(path, arrays)

        monkeypatch.setattr(checkpoint, "_save_npz", flaky)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(directory, model, trainer, step=4)

        fresh = ArtificialScientistModel(SMALL, rng=np.random.default_rng(99))
        fresh_trainer = InTransitTrainer(fresh, Adam(fresh.parameters(), lr=1e-3),
                                         TrainingBuffer(rng=np.random.default_rng(98)),
                                         CombinedLoss(),
                                         n_rep=1)
        manifest = load_checkpoint(directory, fresh, fresh_trainer)
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
            assert handle.read() == saved_manifest
        assert manifest["step"] == 3 and len(fresh_trainer.history) == 3
        restored = fresh.state_dict()
        assert restored.keys() == saved_weights.keys()
        for name, value in saved_weights.items():
            np.testing.assert_array_equal(restored[name], value, err_msg=name)
        # the half-written state directory is gone; only the committed one stays
        assert [entry for entry in os.listdir(directory) if entry != "manifest.json"] \
            == [manifest["state"]]

    def test_a_resave_replaces_the_previous_state(self, rng, tmp_path):
        model, trainer = make_trained_trainer(rng)
        directory = str(tmp_path / "ckpt")
        save_checkpoint(directory, model, trainer, step=3)
        trainer.train_iteration(step=4)
        save_checkpoint(directory, model, trainer, step=4)
        fresh = ArtificialScientistModel(SMALL, rng=np.random.default_rng(99))
        manifest = load_checkpoint(directory, fresh, trainer_for(fresh))
        assert (manifest["step"], manifest["training_iterations"]) == (4, 4)
        assert sorted(os.listdir(directory)) == sorted(["manifest.json", manifest["state"]])
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(fresh.state_dict()[name], value)

    def test_load_missing_checkpoint(self, rng, tmp_path):
        model = ArtificialScientistModel(SMALL, rng=rng)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "missing"), model, trainer_for(model))

    def test_the_manifest_records_the_training_state(self, rng, tmp_path):
        model, trainer = make_trained_trainer(rng)
        info = save_checkpoint(str(tmp_path / "ckpt"), model, trainer, step=7)
        fresh = ArtificialScientistModel(SMALL, rng=rng)
        manifest = load_checkpoint(info.directory, fresh, trainer_for(fresh))
        assert manifest["step"] == info.step == 7
        assert manifest["training_iterations"] == info.training_iterations == 3
        assert manifest["samples_consumed"] == trainer.samples_consumed == 3
        assert manifest["n_rep"] == trainer.n_rep
        assert manifest["buffer"] == {
            "now": trainer.buffer.now_count, "ep": trainer.buffer.ep_count,
            "now_size": trainer.buffer.now_size, "ep_size": trainer.buffer.ep_size}
        assert info.n_buffer_samples == len(trainer.buffer)
        assert manifest["state"].startswith("state-")

    def test_history_and_buffer_samples_load_exactly(self, rng, tmp_path):
        model, trainer = make_trained_trainer(rng, n_iterations=4)
        directory = str(tmp_path / "ckpt")
        save_checkpoint(directory, model, trainer, step=4)
        fresh = ArtificialScientistModel(SMALL, rng=np.random.default_rng(99))
        fresh_trainer = InTransitTrainer(fresh, Adam(fresh.parameters(), lr=1e-3),
                                         TrainingBuffer(rng=np.random.default_rng(98)),
                                         CombinedLoss(),
                                         n_rep=1)
        load_checkpoint(directory, fresh, fresh_trainer)
        assert fresh_trainer.history.steps == trainer.history.steps
        assert fresh_trainer.history.terms == trainer.history.terms
        for restored, saved in ((fresh_trainer.buffer._now, trainer.buffer._now),
                                (fresh_trainer.buffer._ep, trainer.buffer._ep)):
            assert len(restored) == len(saved)
            for got, want in zip(restored, saved):
                np.testing.assert_array_equal(got.point_cloud, want.point_cloud)
                np.testing.assert_array_equal(got.spectrum, want.spectrum)
                assert (got.step, got.region) == (want.step, want.region)

    def test_an_untrained_trainer_checkpoints_and_loads(self, rng, tmp_path):
        model = ArtificialScientistModel(SMALL, rng=rng)
        trainer = InTransitTrainer(model, Adam(model.parameters(), lr=1e-3),
                                   TrainingBuffer(rng=rng), CombinedLoss(), n_rep=1)
        directory = str(tmp_path / "ckpt")
        info = save_checkpoint(directory, model, trainer, step=0)
        assert (info.training_iterations, info.n_buffer_samples) == (0, 0)
        fresh = ArtificialScientistModel(SMALL, rng=np.random.default_rng(99))
        fresh_trainer = InTransitTrainer(fresh, Adam(fresh.parameters(), lr=1e-3),
                                         TrainingBuffer(rng=np.random.default_rng(98)),
                                         CombinedLoss(),
                                         n_rep=1)
        load_checkpoint(directory, fresh, fresh_trainer)
        assert len(fresh_trainer.history) == 0 and len(fresh_trainer.buffer) == 0
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(fresh.state_dict()[name], value)

    def test_loading_into_a_different_architecture_is_refused(self, rng, tmp_path):
        model, trainer = make_trained_trainer(rng)
        directory = str(tmp_path / "ckpt")
        save_checkpoint(directory, model, trainer, step=3)
        other = ArtificialScientistModel(
            ModelConfig(n_input_points=24, encoder_channels=(12, 24),
                        encoder_head_hidden=16, latent_dim=16, decoder_grid=(2, 2, 2),
                        decoder_channels=(8, 6), spectrum_dim=8, inn_blocks=3,
                        inn_hidden=(16,)), rng=rng)
        with pytest.raises(KeyError, match="state dict mismatch"):
            load_checkpoint(directory, other, trainer_for(other))


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
        assert result.max_queue_depth <= session.brokers["mlapp"].queue_limit

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
