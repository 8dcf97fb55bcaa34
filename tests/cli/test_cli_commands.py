"""Smoke tests driving ``repro.cli.main(argv)`` for every subcommand.

The seed suite covered the original flags; these tests cover the full
surface after the ``repro.workflow`` redesign — in particular the new
``--preset`` / ``--driver`` / ``--config`` / ``--monitor`` run flags and
the ``presets`` listing command.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main as cli_main
from repro.workflow import available_drivers, available_presets

TINY = ["--grid", "6", "12", "2", "--particles-per-cell", "3", "--n-rep", "1"]


class TestRunCommand:
    @pytest.mark.parametrize("driver", available_drivers())
    def test_run_with_every_driver(self, capsys, driver):
        assert cli_main(["run", "--steps", "2", "--driver", driver] + TINY) == 0
        out = capsys.readouterr().out
        assert f"driver: {driver}" in out
        assert "iterations_streamed" in out
        if driver != "serial":
            assert "max stream queue depth" in out

    def test_run_with_preset_flag(self, capsys):
        assert cli_main(["run", "--steps", "1", "--preset", "bench-tiny",
                         "--n-rep", "1"]) == 0
        out = capsys.readouterr().out
        assert "iterations_streamed" in out

    def test_run_with_unknown_preset_prints_helpful_error(self, capsys):
        assert cli_main(["run", "--steps", "1", "--preset", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "warp-drive" in err
        for name in available_presets():
            assert name in err

    def test_run_with_unknown_driver_prints_helpful_error(self, capsys):
        assert cli_main(["run", "--steps", "1", "--driver", "quantum"] + TINY) == 2
        err = capsys.readouterr().err
        for name in available_drivers():
            assert name in err

    def test_run_with_missing_config_file_prints_error(self, capsys):
        assert cli_main(["run", "--steps", "1",
                         "--config", "/does/not/exist.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        ["--grid", "0", "4", "2"], ["--n-rep", "0"],
        ["--particles-per-cell", "0"]], ids=["grid", "n-rep", "ppc"])
    def test_run_with_bad_override_exits_2(self, capsys, override):
        # these values are only checked when the session is built
        assert cli_main(["run", "--steps", "2"] + override) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_run_with_config_file(self, capsys, tmp_path):
        from repro.workflow import get_preset

        config = get_preset("bench-tiny")
        path = str(tmp_path / "workflow.json")
        config.to_file(path)
        assert cli_main(["run", "--steps", "1", "--config", path,
                         "--n-rep", "1"]) == 0
        assert "iterations_streamed" in capsys.readouterr().out

    @pytest.mark.parametrize("khi, message", [
        ({"kernel": "reference"}, "unknown KHIConfig keys ['kernel']"),
        ({"flow_axis": 1}, "unknown KHIConfig keys ['flow_axis']; valid keys: "
                           "beta, density, grid_shape, particles_per_cell, seed"),
        ({"beta": 1.5}, "beta must be finite with 0 < beta < 1"),
        ({"density": float("nan")}, "density must be finite and > 0"),
        ({"dt": float("nan")}, "unknown KHIConfig keys ['dt']; valid keys: "
                               "beta, density, grid_shape, particles_per_cell, seed")],
        ids=["kernel", "flow-axis", "beta-1.5", "nan-density", "nan-dt"])
    def test_run_with_a_bad_khi_section_in_the_config_exits_2(
            self, capsys, tmp_path, khi, message):
        """Neither the kernels, the geometry nor the time step is a setting,
        and Python's json reads NaN: each fails when the config is loaded,
        before anything runs."""
        import json

        from repro.workflow import get_preset

        config = get_preset("bench-tiny").to_dict()
        config["khi"].update(khi)
        path = tmp_path / "workflow.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["run", "--steps", "1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("streaming, message", [
        ({"particle_subsample_fraction": 1.5},
         "particle_subsample_fraction must lie in (0, 1]"),
        ({"reduce_precision": "no"}, "reduce_precision must be true or false"),
        ({"queue_limit": 0}, "queue_limit must be an integer >= 1")],
        ids=["fraction", "precision", "queue-limit"])
    def test_run_with_a_bad_streaming_section_in_the_config_exits_2(
            self, capsys, tmp_path, streaming, message):
        """Fails at load, not silently (an unreduced stream, precision on
        for ``"no"``) and not at session build."""
        import json

        path = tmp_path / "workflow.json"
        path.write_text(json.dumps({"streaming": streaming}), encoding="utf-8")
        assert cli_main(["run", "--steps", "1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("ml, message", [
        ({"base_learning_rate": float("nan")},
         "base_learning_rate must be finite and >= 0, got nan"),
        ({"m_vae": -2.0}, "unknown MLConfig keys ['m_vae']")],
        ids=["nan-rate", "negative-m-vae"])
    def test_run_with_a_rate_that_cannot_train_exits_2(
            self, capsys, tmp_path, ml, message):
        """A NaN rate trained to a NaN loss and a negative m_vae ascended
        the VAE loss, both exiting 0: now they fail when the config loads
        (``m_vae`` is a constant, so the key itself is refused)."""
        import json

        path = tmp_path / "workflow.json"
        path.write_text(json.dumps({"ml": ml}), encoding="utf-8")
        assert cli_main(["run", "--steps", "1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("document, kind", [("5", "int"), ('"abc"', "str")],
                             ids=["number", "string"])
    @pytest.mark.parametrize("command", [["run", "--steps", "1", "--config"],
                                         ["campaign", "run", "--spec"]],
                             ids=["run-config", "campaign-spec"])
    def test_a_file_that_is_not_a_json_object_exits_2(
            self, capsys, tmp_path, command, document, kind):
        path = tmp_path / "file.json"
        path.write_text(document, encoding="utf-8")
        assert cli_main(command + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"must be a JSON object, got {kind}" in err
        assert "unknown" not in err

    def test_run_with_monitor_consumer(self, capsys):
        assert cli_main(["run", "--steps", "2", "--monitor"] + TINY) == 0
        out = capsys.readouterr().out
        assert "monitor consumer: 2 iterations" in out
        assert "momentum histogram" in out

    def test_run_json_output_is_machine_readable(self, capsys):
        import json

        assert cli_main(["run", "--steps", "2", "--json"] + TINY) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["driver"] == "serial"
        assert payload["steps"] == 2
        assert payload["iterations_streamed"] == 2
        assert payload["training_iterations"] == 2
        assert payload["producer_exception"] is None
        assert payload["consumer_exceptions"] == {}
        assert payload["consumer_summaries"]["mlapp"]["kind"] == "mlapp"

    def test_run_json_with_monitor_evaluate_and_checkpoint(self, capsys, tmp_path):
        import json

        checkpoint = str(tmp_path / "ckpt")
        assert cli_main(["run", "--steps", "3", "--json", "--monitor",
                         "--evaluate", "--checkpoint", checkpoint] + TINY) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consumer_summaries"]["monitor"]["iterations_consumed"] == 3
        assert payload["evaluation"]
        assert {"region", "true_peak", "predicted_peak",
                "constant_histogram_l1"} <= set(payload["evaluation"][0])
        assert "surrogate_spectrum_mse" in payload["ratios_to_constant"]
        assert payload["checkpoint"]["directory"].startswith(checkpoint)

    def test_run_evaluate_and_checkpoint(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        assert cli_main(["run", "--steps", "3", "--evaluate",
                         "--checkpoint", checkpoint] + TINY) == 0
        out = capsys.readouterr().out
        assert "predicted peak" in out and "histogram L1 (pooled's)" in out
        assert "mean spectrum's" in out and "majority share" in out
        assert os.path.exists(os.path.join(checkpoint, "manifest.json"))

    def test_unwritable_checkpoint_exits_2_with_one_line(self, capsys, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert cli_main(["run", "--steps", "1", "--preset", "bench-tiny",
                         "--checkpoint", str(blocker / "ckpt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestPresetsCommand:
    def test_presets_lists_everything(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in available_presets():
            assert name in out
        for name in available_drivers():
            assert name in out
        assert "192x256x12" in out  # the paper preset's grid


class TestServeCommand:
    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_serve_with_a_port_out_of_range_exits_2(self, capsys, tmp_path,
                                                    port):
        """Refused before the store directory is made or a socket bound."""
        store_dir = tmp_path / "service"
        assert cli_main(["serve", "--port", port,
                         "--store-dir", str(store_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: port must lie in 0..65535, got {port}\n"
        assert not store_dir.exists()


class TestStudyCommands:
    def test_fom_scan(self, capsys):
        assert cli_main(["fom-scan"]) == 0
        assert "Frontier" in capsys.readouterr().out

    def test_streaming_study(self, capsys):
        assert cli_main(["streaming-study"]) == 0
        assert "libfabric" in capsys.readouterr().out

    def test_streaming_study_custom_bytes(self, capsys):
        assert cli_main(["streaming-study", "--bytes-per-node", "1e9"]) == 0
        assert "mpi" in capsys.readouterr().out

    def test_ddp_scan(self, capsys):
        assert cli_main(["ddp-scan", "--nodes", "8", "16"]) == 0
        assert "deficit attribution" in capsys.readouterr().out

    def test_khi_info(self, capsys):
        assert cli_main(["khi-info"]) == 0
        assert "beta = 0.2" in capsys.readouterr().out

    def test_placement(self, capsys):
        assert cli_main(["placement", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "intra_node" in out and "inter_node" in out

    @pytest.mark.parametrize("argv", [
        ["placement", "--nodes", "0"], ["ddp-scan", "--nodes", "0"],
        ["ddp-scan", "--nodes", "8", "-4"],
        ["streaming-study", "--bytes-per-node", "-1"],
        ["streaming-study", "--bytes-per-node", "nan"],
        ["streaming-study", "--bytes-per-node", "inf"]],
        ids=["placement-nodes-0", "ddp-nodes-0", "ddp-nodes-negative",
             "bytes-negative", "bytes-nan", "bytes-inf"])
    def test_out_of_range_study_input_exits_2(self, capsys, argv):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""           # no table header before the error
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_bench_hotpath_no_persist(self, capsys):
        assert cli_main(["bench-hotpath", "--steps", "2", "--warmup", "1",
                         "--repeats", "1", "--no-persist"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "fused == reference: OK" in out

    def test_bench_hotpath_writes_history(self, capsys, tmp_path):
        from repro.utils.benchjson import bench_path, load_history

        assert cli_main(["bench-hotpath", "--steps", "2", "--warmup", "1",
                         "--repeats", "1", "--output-dir", str(tmp_path)]) == 0
        record = load_history(bench_path("pic_hotpath", str(tmp_path)))["runs"][-1]
        assert record is not None
        assert record["metrics"]["equivalent"] is True

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["transmogrify"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main([])
