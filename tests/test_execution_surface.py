"""The execution surface: which executors and drivers exist, and the one
rule that picks an executor for a launch.

Two executors, two drivers, no facade; CLI flags and the service's
submit body are two spellings of the same options and must resolve to the
same executor through ``repro.campaign.executor_for``.
The options of the run path — worker pool, stream, session, PIC step — are
pinned by name, so a new one shows up in review as a diff of this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import inspect

import pytest

import repro.campaign
import repro.core
import repro.openpmd
import repro.streaming
from repro.campaign import (CampaignSpec, WorkerPool, WorkerPoolExecutor,
                            available_campaign_presets, available_executors,
                            executor_for, get_campaign_preset, get_executor)
from repro.cli import _build_parser, _campaign_executor
from repro.core.config import StreamingConfig, WorkflowConfig
from repro.openpmd import DirectoryStore, Series
from repro.utils.serialization import jsonable
from repro.pic import simulation as pic_simulation
from repro.pic.khi import KHIConfig
from repro.pic.simulation import SimulationConfig
from repro.service import jobs, parse_submission
from repro.streaming import NoOpConsumer, SSTBroker, Step
from repro.workflow import (WorkflowBuilder, WorkflowSession,
                            available_drivers, get_driver)


class TestSurface:
    def test_removed_names_are_gone_not_aliased(self):
        assert available_executors() == ("serial", "workers")
        assert available_drivers() == ("pipelined", "serial")
        for name in ("thread", "process", "sharded"):
            with pytest.raises(ValueError, match="unknown executor .*; "
                               "valid executors: serial, workers$"):
                get_executor(name)
        with pytest.raises(ValueError, match="pipelined, serial"):
            get_driver("threaded")
        with pytest.raises(ValueError, match="pipelined, serial"):
            WorkflowBuilder().driver("threaded")
        spec = CampaignSpec.from_dict(dict(
            get_campaign_preset("campaign-smoke").to_dict(),
            driver="threaded"))
        with pytest.raises(ValueError, match="pipelined, serial"):
            spec.resolve()
        # the facade classes and the modules that held them
        assert [name for name in dir(repro.core)
                if "scientist" in name.lower() or "threaded" in name.lower()
                or name == "WorkflowReport"] == []
        # the sharded executor, its routers and their module
        assert importlib.util.find_spec("repro.campaign.sharding") is None
        assert [name for name in dir(repro.campaign)
                if "shard" in name.lower() or "router" in name.lower()] == []


def shape_of(executor):
    """An executor's type and constructor arguments, comparably."""
    return type(executor), {key: getattr(executor, key)
                            for key in ("max_workers", "timeout", "retries")}


#: executor options — each spelled as flags and as a body.
CASES = {
    "default-serial": {},
    "explicit-workers": {"executor": "workers", "max_workers": 2,
                         "timeout": 30.0, "retries": 1},
    "explicit-serial": {"executor": "serial", "retries": 2},
}


class TestOneResolutionRule:
    def test_the_service_calls_the_campaign_function(self):
        assert jobs.executor_for is executor_for

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_and_submit_body_resolve_alike(self, case):
        options = CASES[case]
        argv = ["campaign", "run", "--preset", "campaign-smoke"]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        from_flags = _campaign_executor(_build_parser().parse_args(argv))

        _, body_options = parse_submission(dict(options,
                                                preset="campaign-smoke"))
        from_body = jobs.executor_for(body_options)

        assert shape_of(from_flags) == shape_of(from_body) \
            == shape_of(executor_for(options))


def parameters_of(function):
    return [name for name in inspect.signature(function).parameters
            if name != "self"]


def flags_of(parser, *path):
    """The option strings of the sub-command ``path`` of ``parser``."""
    for name in path:
        (commands,) = [action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        parser = commands.choices[name]
    return sorted(option for action in parser._actions
                  for option in action.option_strings)


class TestOptionsCensus:
    def test_a_campaign_launch_takes_exactly_these_options(self):
        """One concurrent executor; a spec carries no execution hints but
        its cache directory."""
        assert available_executors() == ("serial", "workers")
        assert available_campaign_presets() == ("campaign-smoke",)
        assert parameters_of(executor_for) == ["options"]
        assert [field.name for field in dataclasses.fields(CampaignSpec)] == [
            "name", "base_preset", "base_config", "sampler", "parameters",
            "explicit", "n_samples", "repetitions", "n_steps", "driver",
            "seed", "cache_dir"]
        assert flags_of(_build_parser(), "campaign", "run") == [
            "--cache-dir", "--executor", "--help", "--json", "--max-runs",
            "--max-workers", "--preset", "--retries", "--spec", "--store",
            "--timeout", "-h"]
        assert parameters_of(jsonable) == ["value"]

    def test_removed_campaign_options_are_rejected_not_ignored(self, capsys):
        smoke = get_campaign_preset("campaign-smoke").to_dict()
        with pytest.raises(ValueError,
                           match=r"unknown CampaignSpec keys \['routing'\]"):
            CampaignSpec.from_dict(dict(smoke, routing={}))
        with pytest.raises(ValueError, match="valid campaign presets"):
            get_campaign_preset("campaign-smoke-sharded")
        for flag in ("--shards", "--route", "--inner-executor"):
            with pytest.raises(SystemExit) as exited:
                _build_parser().parse_args(["campaign", "run", "--preset",
                                            "campaign-smoke", flag, "2"])
            assert exited.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(TypeError, match="strict"):
            jsonable(float("nan"), strict=False)

    def test_the_run_path_takes_exactly_these_options(self):
        assert parameters_of(WorkerPoolExecutor.__init__) == [
            "max_workers", "timeout", "retries", "pool", "capacity",
            "max_requeues", "start_method"]
        assert parameters_of(WorkerPool.run) == [
            "payloads", "worker", "retries", "timeout", "on_record",
            "should_stop", "capacity", "max_requeues", "counters"]
        assert parameters_of(SSTBroker.__init__) == [
            "stream_name", "queue_limit"]
        assert parameters_of(Series.__init__) == ["broker"]
        assert parameters_of(DirectoryStore.__init__) == ["directory"]
        # an openPMD iteration is the step it is streamed as: no object
        # tree, access modes or backend classes
        assert repro.openpmd.__all__ == ["DirectoryStore", "Series"]
        assert [name for name in (
            "Access", "Iteration", "Attributable", "Record", "RecordComponent",
            "Mesh", "ParticleSpecies", "Backend", "MemoryBackend", "JSONBackend",
            "StreamingBackend") if hasattr(repro.openpmd, name)] == []
        assert importlib.util.find_spec("repro.openpmd.records") is None
        assert importlib.util.find_spec("repro.openpmd.backends") is None
        assert [field.name for field in dataclasses.fields(Step)] == [
            "index", "arrays", "attributes"]
        assert [field.name for field in dataclasses.fields(NoOpConsumer)] == [
            "broker", "step_times", "step_bytes"]
        assert parameters_of(NoOpConsumer.run) == ["max_steps"]
        # a step is flat arrays: no engines, rank blocks or step protocol
        assert [name for name in ("SSTWriterEngine", "SSTReaderEngine",
                                  "Variable", "Block", "StepStatus",
                                  "EndOfStreamError")
                if hasattr(repro.streaming, name)] == []
        assert importlib.util.find_spec("repro.streaming.engine") is None
        assert importlib.util.find_spec("repro.streaming.variable") is None
        assert parameters_of(WorkflowSession.__init__) == [
            "config", "driver", "consumer_specs", "hooks"]
        assert [field.name for field in dataclasses.fields(StreamingConfig)] \
            == ["queue_limit", "sample_interval", "stream_name",
                "particle_subsample_fraction", "reduce_precision"]

    def test_the_pic_step_takes_exactly_these_options(self):
        """One kernel per phase; the reference kernels are oracles, not a
        setting.  These are the names the simulation step resolves."""
        assert [field.name for field in dataclasses.fields(SimulationConfig)] \
            == ["grid", "dt"]
        assert [field.name for field in dataclasses.fields(KHIConfig)] == [
            "grid_shape", "cell_size", "density", "beta", "particles_per_cell",
            "thermal_beta", "perturbation_amplitude", "perturbation_modes",
            "flow_axis", "shear_axis", "immobile_ions", "dt", "seed"]
        assert parameters_of(pic_simulation.gather_fields) == [
            "grid", "positions", "workspace"]
        assert parameters_of(pic_simulation.deposit_charge_cic) == [
            "grid", "positions", "charge", "weights"]
        assert parameters_of(pic_simulation.deposit_current_esirkepov) == [
            "grid", "old_positions", "new_positions", "charge", "weights",
            "dt", "workspace"]
        assert parameters_of(pic_simulation.advance_positions) == [
            "species", "dt", "box_extent"]
        box_extent = inspect.signature(
            pic_simulation.advance_positions).parameters["box_extent"]
        assert box_extent.default is inspect.Parameter.empty

    def test_options_that_no_longer_exist_are_rejected_not_ignored(self):
        with pytest.raises(ValueError, match="valid keys: .*queue_limit"):
            WorkflowConfig.from_dict({"streaming": {"data_plane": "mpi"}})
        with pytest.raises(ValueError,
                           match=r"unknown KHIConfig keys \['kernel'\]; valid keys"):
            WorkflowConfig.from_dict({"khi": {"kernel": "fused"}})
        # the name in two pieces: a grep for it over the tree stays empty
        redispatch_threshold = "straggler" + "_after"
        with pytest.raises(TypeError, match=redispatch_threshold):
            get_executor("workers", **{redispatch_threshold: 1.0})

    def test_the_pool_keeps_the_counters_the_benchmark_reads(self):
        stats = WorkerPool(1).stats()     # spawns lazily: no process here
        assert {"dispatched_batches", "requeued_runs",
                "straggler_redispatches"} <= set(stats)
