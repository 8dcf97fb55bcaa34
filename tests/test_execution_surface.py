"""The execution surface: which executors and drivers exist, and the one
rule that picks an executor for a launch.

Two executors, two drivers, no facade; CLI flags and the service's
submit body are two spellings of the same options and must resolve to the
same executor through ``repro.campaign.executor_for``.
The options of the run path — worker pool, stream, session, PIC step — the
surface of the ``repro.mlcore`` PyTorch stand-in and that of the
Frontier-scale figure models in ``repro.perfmodel`` are pinned by name, so
a new one shows up in review as a diff of this file.  ``WorkflowConfig`` is
held to the census rule: every option takes two values in the configs the
repository runs, or says why not.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

import repro.campaign
import repro.cli
import repro.core
import repro.mlcore
import repro.openpmd
import repro.perfmodel
import repro.streaming
import repro.workflow
from repro.campaign import (CampaignExecutor, CampaignSpec, SerialExecutor,
                            WorkerPool, WorkerPoolExecutor, executor_for,
                            get_campaign_preset)
from repro.cli import _build_parser
from repro.continual import InTransitTrainer
from repro.core.config import StreamingConfig, WorkflowConfig
from repro.mlcore import functional as F
from repro.mlcore import init as mlcore_init
from repro.mlcore import layers as mlcore_layers
from repro.mlcore import losses as mlcore_losses
from repro.mlcore import optim
from repro.mlcore import tensor as tensor_module
from repro.mlcore.module import Module, Parameter
from repro.mlcore.tensor import Tensor
from repro.analysis.evaluation import RegionEvaluation
from repro.analysis.regions import label_particles
from repro.campaign import presets as campaign_presets
from repro.campaign import scheduler as campaign_scheduler
from repro.campaign import spec as campaign_spec
from repro.campaign.spec import RunSpec
from repro.models.decoder import PointCloudDecoder
from repro.models.encoder import PointNetEncoder
from repro.models.inn import GlowCouplingBlock
from repro.openpmd import DirectoryStore, Series
from repro.perfmodel import (DDPWeakScalingModel, FOMScalingModel, MachineSpec,
                             ResourcePlan, StreamingScalingPoint,
                             StreamingScalingStudy)
from repro.perfmodel import fom as perfmodel_fom
from repro.perfmodel import streaming as perfmodel_streaming
from repro.utils.serialization import jsonable
from repro.pic import diagnostics as pic_diagnostics
from repro.pic import simulation as pic_simulation
from repro.pic.grid import YeeGrid
from repro.pic.khi import KHIConfig
from repro.pic.particles import ParticleSpecies
from repro.pic.simulation import PICSimulation, SimulationConfig
from repro.service import jobs, parse_submission
from repro.service import sse as service_sse
from repro.service.bus import RunEventBus
from repro.streaming import NoOpConsumer, SSTBroker, Step
from repro.workflow import (HistogramMonitorConsumer, MLAppConsumer,
                            WorkflowBuilder, WorkflowSession, available_presets,
                            driver_for, get_preset)
from repro.workflow import builder as workflow_builder
from repro.workflow import consumers as workflow_consumers
from repro.workflow import drivers as workflow_drivers
from repro.workflow import learning

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``module[:class]`` -> the names the call census deleted, because only
#: tests called them (``tests/test_call_census.py``)
CENSUS_REMOVED = {
    "repro": ["__dir__"],
    "repro.constants": ["lorentz_gamma", "plasma_wavelength", "skin_depth"],
    "repro.analysis": ["region_momentum_histograms"],
    "repro.analysis.growth:GrowthRateFit": ["e_folding_time"],
    "repro.analysis.histograms": ["region_momentum_histograms"],
    "repro.analysis.regions": ["region_fractions"],
    "repro.campaign": ["available_campaign_presets", "available_executors"],
    "repro.campaign.presets": ["available_campaign_presets"],
    "repro.campaign.scheduler": ["available_executors"],
    "repro.campaign.cache:ResultCache": ["__len__"],
    "repro.campaign.store:CampaignStore": ["__len__", "counts"],
    "repro.campaign.spec:CampaignSpec": ["swept_parameters"],
    "repro.workflow.train_hotpath": ["main"],
    "repro.workflow.learning": ["main"],
    "repro.utils": ["latest_run", "check_probability", "check_shape"],
    "repro.utils.benchjson": ["case_main", "latest_run"],
    "repro.utils.validation": ["broadcast_shapes", "check_in",
                               "check_probability", "check_shape"],
    "repro.continual.buffer:TrainingBuffer": ["batch_size", "ep_steps",
                                              "now_steps", "__len__"],
    "repro.continual.trainer:TrainingHistory": ["latest"],
    "repro.core.checkpoint:CheckpointInfo": ["manifest_path"],
    "repro.core.config:WorkflowConfig": ["n_regions"],
    "repro.core.transforms:RegionPartition": ["n_regions"],
    "repro.models": ["small_config"],
    "repro.models.config": ["small_config"],
    "repro.pic.diagnostics": ["momentum_histogram"],
    "repro.pic": ["FigureOfMerit", "figure_of_merit"],
    "repro.pic.simulation": ["FigureOfMerit", "figure_of_merit"],
    "repro.pic.grid:YeeGrid": ["stagger"],
    "repro.pic.particles:ParticleSpecies": ["beta", "sample", "select",
                                            "total_charge", "velocities"],
    "repro.pic.simulation:PICSimulation": ["add_species", "scratch_bytes"],
    "repro.pic.kernels:Workspace": ["nbytes"],
    "repro.radiation": ["total_radiated_energy"],
    "repro.radiation.detector:RadiationDetector": [
        "frequencies_in_plasma_units", "shape"],
    "repro.radiation.spectrum": ["total_radiated_energy"],
    "repro.service": ["parse_events"],
    "repro.service.sse": ["parse_events"],
    "repro.service.bus:RunEventBus": ["subscriber_count"],
    "repro.service.jobs:CampaignJob": ["pending_count"],
    "repro.streaming.noop:NoOpConsumer": ["mean_step_time", "total_bytes"],
    "repro.streaming.reduction:Reducer": ["factor"],
    "repro.streaming.reduction:ReductionPipeline": ["total_factor"],
    "repro.telemetry": ["context_of"],
    "repro.telemetry.spans": ["context_of"],
    "repro.telemetry.spans:Timer": ["counts"],
    "repro.telemetry.export:TraceWriter": ["__enter__", "__exit__"],
    "repro.telemetry.metrics:Metric": ["value"],
    "repro.telemetry.metrics:Gauge": ["inc"],
    "repro.telemetry.metrics:Histogram": ["series", "sum", "value"],
    "repro.telemetry.metrics:MetricsRegistry": ["reset", "snapshot"],
    "repro.workflow": ["register_consumer", "register_preset"],
    "repro.workflow.consumers": ["register_consumer"],
    "repro.workflow.presets": ["register_preset"],
    "repro.workflow.builder:WorkflowBuilder": ["on_run_end",
                                               "replace_consumers"],
    "repro.workflow.builder:WorkflowSession": ["broker", "consumed",
                                               "reader_series"],
    "repro.workflow.fanout:FanOutBroker": ["closed", "queue_limit"],
}

#: ``module:qualname`` -> the parameters the argument census deleted, because
#: every CI step passed them one value (``tests/test_call_census.py``): each
#: became a module constant or the value its callers always passed
CENSUS_REMOVED_PARAMETERS = {
    function: names.split() for function, names in (
        row.split(None, 1) for row in """
repro.analysis.classifier:LatentRegimeClassifier.__init__ n_classes learning_rate n_epochs l2
repro.analysis.evaluation:evaluate_inversion bins momentum_range
repro.analysis.histograms:momentum_histogram weights bins momentum_range axis
repro.analysis.histograms:detects_two_populations minimum_separation prominence
repro.analysis.regions:label_particles vortex_half_width
repro.campaign.scheduler:default_pool_workers maximum
repro.campaign.spec:_as_int minimum
repro.campaign.workers:WorkerPool.__init__ heartbeat_interval liveness_timeout start_method
repro.campaign.workers:WorkerPool.wait_ready timeout
repro.campaign.workers:WorkerPool.shutdown timeout
repro.campaign.workers:WorkerPool.run capacity max_requeues
repro.campaign.workers:shared_pool start_method
repro.campaign.workers:shutdown_shared_pools timeout
repro.campaign.workers:WorkerPoolExecutor.__init__ capacity max_requeues start_method
repro.constants:plasma_frequency charge mass
repro.continual.buffer:TrainingBuffer.__init__ n_now
repro.core.producer:StreamingProducerPlugin.__init__ species_name
repro.core.transforms:make_training_samples min_particles_per_region
repro.mlcore.layers.conv:PointwiseConv.forward relu
repro.mlcore.layers.linear:Linear.__init__ bias
repro.mlcore.losses:mmd_imq scales
repro.mlcore.optim:Optimizer.__init__ weight_decay
repro.mlcore.optim:Adam.__init__ betas eps weight_decay
repro.mlcore.optim:make_block_param_groups weight_decay
repro.mlcore.tensor:Tensor.max keepdims
repro.mlcore.tensor:Tensor.min keepdims
repro.models.inn:GlowCouplingBlock.__init__ clamp
repro.openpmd.series:DirectoryStore.put_step timeout
repro.openpmd.series:DirectoryStore.get_step timeout
repro.perfmodel.streaming:make_data_plane rng
repro.pic.deposition:_hat_weights n_nodes
repro.radiation.detector:direction_grid n_phi axis opening_angle
repro.radiation.detector:frequency_grid spacing
repro.radiation.detector:RadiationDetector.for_khi max_omega_in_plasma_units axis
repro.radiation.lienard_wiechert:radiation_amplitude_step chunk_size
repro.radiation.lienard_wiechert:accumulate_amplitude chunk_size
repro.radiation.spectrum:normalize_log_spectrum floor
repro.service.bus:Subscription.get timeout
repro.service.bus:RunEventBus.__init__ max_queue_size
repro.service.bus:RunEventBus.subscribe max_queue_size
repro.service.client:ServiceClient.wait_ready interval
repro.service.client:ServiceClient.events timeout
repro.service.client:ServiceClient.watch timeout
repro.service.jobs:CampaignJob.join timeout
repro.service.jobs:CampaignJobManager.shutdown timeout
repro.service.server:sse_event_stream keepalive_s max_queue_size
repro.service.server:CampaignServiceServer.__init__ keepalive_s subscriber_queue_size
repro.service.server:CampaignServiceServer.shutdown_service timeout
repro.service.server:create_server keepalive_s subscriber_queue_size
repro.streaming.broker:SSTBroker.put_step timeout
repro.streaming.broker:SSTBroker.get_step timeout
repro.streaming.noop:NoOpConsumer.run max_steps
repro.telemetry.metrics:Histogram.__init__ buckets
repro.telemetry.metrics:MetricsRegistry.histogram buckets
repro.telemetry.spans:Span.finish end_s status
repro.utils.benchjson:best_of_interleaved setup
repro.utils.validation:check_array dtype allow_empty
repro.utils.validation:check_positive strict
repro.workflow.builder:WorkflowBuilder.add_consumer factory
repro.workflow.consumers:HistogramMonitorConsumer.__init__ n_bins momentum_range
repro.workflow.drivers:PipelinedDriver.__init__ join_timeout wait_timeout
repro.workflow.fanout:FanOutBroker.put_step timeout
""".strip().splitlines())}


class TestSurface:
    def test_removed_names_are_gone_not_aliased(self):
        assert [type(driver_for(name)).__name__
                for name in ("pipelined", "serial")] == ["PipelinedDriver",
                                                         "SerialDriver"]
        for name in ("thread", "process", "sharded"):
            with pytest.raises(ValueError, match="unknown executor .*; "
                               "valid executors: serial, workers$"):
                executor_for({"executor": name})
        # the executor registry: the two executors are named directly
        for owner in (repro.campaign, campaign_scheduler):
            assert [name for name in ("register_executor", "get_executor",
                                      "_EXECUTORS", "TimeoutWarning")
                    if hasattr(owner, name)] == []
        for resolve in (driver_for, WorkflowBuilder().driver):
            with pytest.raises(ValueError,
                               match="valid drivers: pipelined, serial$"):
                resolve("threaded")
        # the closed driver and consumer registries, their base classes and
        # the session's records: a session is its MLapp and its monitors
        for owner, names in (
                (repro.workflow, ["ExecutionDriver", "available_drivers",
                                  "get_driver", "StreamConsumer",
                                  "available_consumers", "get_consumer_factory",
                                  "ConsumerSpec", "WorkflowHooks"]),
                (workflow_drivers, ["ExecutionDriver", "_DRIVERS",
                                    "available_drivers", "get_driver"]),
                (workflow_consumers, ["StreamConsumer", "ConsumerFactory",
                                      "_make_mlapp", "_make_histogram_monitor",
                                      "_CONSUMER_FACTORIES",
                                      "available_consumers",
                                      "get_consumer_factory"]),
                (workflow_builder, ["WorkflowHooks", "ConsumerSpec"]),
                (WorkflowSession, ["PRIMARY_CONSUMER"]),
                (MLAppConsumer, ["configure_run"]),
                (HistogramMonitorConsumer, ["configure_run"])):
            assert [name for name in names if hasattr(owner, name)] == [], owner
        # every campaign run uses the serial driver: a spec names none
        with pytest.raises(ValueError,
                           match=r"unknown CampaignSpec keys \['driver'\]"):
            CampaignSpec.from_dict(dict(
                get_campaign_preset("campaign-smoke").to_dict(),
                driver="threaded"))
        # the facade classes and the modules that held them
        assert [name for name in dir(repro.core)
                if "scientist" in name.lower() or "threaded" in name.lower()
                or name == "WorkflowReport"] == []
        # the sharded executor, its routers and their module
        assert importlib.util.find_spec("repro.campaign.sharding") is None
        # the PIC and campaign benchmark cases: bench/run.py measures both
        # layers, and the tests hold their gates
        for module in ("repro.pic.hotpath", "repro.campaign.hotpath"):
            assert importlib.util.find_spec(module) is None, module
        # the per-step reduction reports and the machine label only
        # FOMScalingModel.machine read (tests/test_state_census.py), the
        # fan-out's copies and the second way to get a logger
        for module, name in (("repro.streaming", "ReductionReport"),
                             ("repro.streaming.reduction", "ReductionReport"),
                             ("repro.workflow.fanout", "_copy_step"),
                             ("repro.perfmodel", "SUMMIT"),
                             ("repro.perfmodel.machines", "SUMMIT"),
                             ("repro.utils", "get_logger"),
                             ("repro.utils.logging", "get_logger"),
                             ("repro.telemetry", "get_registry"),
                             ("repro.telemetry.metrics", "get_registry")):
            assert not hasattr(importlib.import_module(module), name), name
        # nothing read the figure of merit a simulation run returned: the
        # module went, its FOM weights live in repro.perfmodel.fom
        assert importlib.util.find_spec("repro.pic.fom") is None
        assert [name for name in dir(repro.campaign)
                if "shard" in name.lower() or "router" in name.lower()] == []
        # what only tests called: gone from its module, its class and
        # every package that exported it
        for path, names in CENSUS_REMOVED.items():
            module, _, cls = path.partition(":")
            owner = importlib.import_module(module)
            owner = getattr(owner, cls) if cls else owner
            assert [name for name in names if name in vars(owner)] == [], path

    def test_parameters_the_argument_census_removed_are_gone(self):
        for path, names in CENSUS_REMOVED_PARAMETERS.items():
            module, _, qualname = path.partition(":")
            function = importlib.import_module(module)
            for part in qualname.split("."):
                function = getattr(function, part)
            assert [name for name in names
                    if name in parameters_of(function)] == [], path

    def test_a_step_s_samples_are_built_in_one_pass(self):
        """The producer streams the arrays ``make_training_samples`` returns:
        no per-region spectrum helper, region record or sample metadata,
        and no restack of sample objects on the way out."""
        from repro.continual.buffer import TrainingSample
        from repro.core import producer, transforms
        assert [name for name in ("region_spectrum", "Region")
                if name in vars(transforms)] == []
        assert "_REGION_IDS" not in vars(producer)
        assert "regions" not in vars(transforms.RegionPartition)
        assert field_names(TrainingSample) == ["point_cloud", "spectrum", "step",
                                               "region"]
        assert parameters_of(transforms.make_training_samples) == [
            "species", "previous_momenta", "detector", "partition", "n_points",
            "time", "dt", "rng"]


def shape_of(executor):
    """An executor's type and pool width, comparably."""
    return type(executor), getattr(executor, "max_workers", None)


#: executor options — each spelled as flags and as a body.
CASES = {
    "default-serial": {},
    "explicit-workers": {"executor": "workers", "max_workers": 2},
    "explicit-serial": {"executor": "serial"},
}
#: options no executor takes — refused as flags and as a body alike.
REFUSED = {
    "max-workers-alone": {"max_workers": 2},
    "max-workers-on-serial": {"executor": "serial", "max_workers": 2},
}


def flag_argv(options):
    """``campaign run`` argv spelling ``options`` as flags."""
    argv = ["campaign", "run", "--preset", "campaign-smoke"]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class TestOneResolutionRule:
    def test_the_service_calls_the_campaign_function(self):
        assert jobs.executor_for is executor_for

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_and_submit_body_resolve_alike(self, case):
        options = CASES[case]
        from_flags = executor_for(vars(_build_parser().parse_args(
            flag_argv(options))))

        _, body_options = parse_submission(dict(options,
                                                preset="campaign-smoke"))
        from_body = jobs.executor_for(body_options)

        assert shape_of(from_flags) == shape_of(from_body) \
            == shape_of(executor_for(options))

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_flags_and_submit_body_refuse_alike(self, case, capsys):
        """``max_workers`` sizes the worker pool: without ``executor
        workers`` it is refused, not dropped, in either spelling."""
        options = REFUSED[case]
        message = "max_workers sizes the worker pool; it needs executor 'workers'"
        with pytest.raises(ValueError) as from_flags:
            executor_for(vars(_build_parser().parse_args(flag_argv(options))))
        _, body_options = parse_submission(dict(options,
                                                preset="campaign-smoke"))
        with pytest.raises(ValueError) as from_body:
            jobs.executor_for(body_options)
        assert str(from_flags.value) == str(from_body.value) == message
        # the CLI: exit 2 and one error line, before anything runs
        assert repro.cli.main(flag_argv(options)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""


def parameters_of(function):
    return [name for name in inspect.signature(function).parameters
            if name != "self"]


def public_names(module):
    """The public names ``module`` defines itself, not those it imports."""
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and not inspect.ismodule(value)
                  and getattr(value, "__module__", module.__name__) == module.__name__)


def flags_of(parser, *path):
    """The option strings of the sub-command ``path`` of ``parser``."""
    for name in path:
        (commands,) = [action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        parser = commands.choices[name]
    return sorted(option for action in parser._actions
                  for option in action.option_strings)


#: ``WorkflowConfig`` leaves that every census config leaves at one value,
#: each kept for the reason given
ONE_VALUED = {
    "khi.beta": "an input of growth_rate_estimate; the KHI validation's "
                "no-shear control runs at beta = 1e-4",
    "khi.density": "an input of growth_rate_estimate",
    "streaming.queue_limit": "the SST QueueLimit",
    "streaming.sample_interval": "the time-integrated spectra make it "
                                 "two-valued",
    "streaming.stream_name": "a name",
}
#: ``CampaignSpec`` fields that every launched spec leaves at one value,
#: each kept for the reason given (none: each of the seven takes two)
ONE_VALUED_SPEC_FIELDS = {}
#: values computed from the options, never set
DERIVED = {"n_detector_frequencies": "spectrum_dim // n_detector_directions"}
#: options made constants or derived, each with the section it left
REMOVED_OPTIONS = {
    ("khi",): ["cell_size", "dt", "thermal_beta", "perturbation_amplitude",
               "perturbation_modes", "immobile_ions", "flow_axis",
               "shear_axis"],
    ("ml",): ["n_points_per_sample", "max_grad_norm", "warmup_steps",
              "n_now", "m_vae"],
    ("ml", "model"): ["point_dim"],
    (): ["n_detector_frequencies"],
}


def _example(name):
    """An example script loaded as a module (its ``main`` is not run)."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "examples", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def census_traffic():
    """Every ``WorkflowConfig`` the repository runs: the workflow presets,
    the smoke campaign's runs, the benchmark's coupled shapes at both
    sizes and its sweep, and the examples' configs and sweep.  The
    benchmark is imported read-only, so the repository root must be on
    ``sys.path``."""
    workloads = importlib.import_module("bench.workloads")
    configs = [get_preset(name) for name in available_presets()]
    specs = [get_campaign_preset("campaign-smoke"),
             _example("campaign_sweep").sweep_spec("census")]
    for smoke in (True, False):
        configs += [shape.configure(workloads.DEFAULT_SEED, smoke)
                    for shape in workloads.COUPLED_SHAPES.values()]
        specs.append(workloads.sweep_spec("census", workloads.DEFAULT_SEED,
                                          smoke))
    configs += [WorkflowConfig.from_dict(run.config)
                for spec in specs for run in spec.resolve()]
    configs += [_example("khi_inverse_problem").build_config(),
                _example("file_based_vs_in_transit").workflow_config(),
                learning.session_config(learning.SEEDS[0])]
    return configs


def spec_traffic():
    """Every ``CampaignSpec`` the repository launches: the smoke campaign
    and CI's 12-repetition copy of it, the example's sweep, the benchmark's
    sweep at both sizes and CI's ``cli-spec.json``.  The benchmark is
    imported read-only, so the repository root must be on ``sys.path``."""
    workloads = importlib.import_module("bench.workloads")
    smoke = get_campaign_preset("campaign-smoke")
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml"),
              encoding="utf-8") as handle:
        (cli_spec,) = re.findall(r"echo '(\{.*\})' > cli-spec\.json",
                                 handle.read())
    return [smoke,
            dataclasses.replace(smoke, name="campaign-smoke-cancel",
                                repetitions=12),
            _example("campaign_sweep").sweep_spec("census"),
            *(workloads.sweep_spec("census", workloads.DEFAULT_SEED, size)
              for size in (True, False)),
            CampaignSpec.from_dict(json.loads(cli_spec))]


def config_leaves(data, prefix=""):
    """``(dotted path, JSON of the value)`` of every leaf of ``to_dict()``."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, json.dumps(value)


class TestOptionsCensus:
    def test_every_config_option_takes_two_values_in_use(self, monkeypatch):
        """An option the census traffic leaves at one value is a constant,
        unless ``ONE_VALUED`` says why it stays an option."""
        monkeypatch.syspath_prepend(ROOT)
        values = {}
        traffic = census_traffic()
        for config in traffic:
            for path, value in config_leaves(config.to_dict()):
                values.setdefault(path, set()).add(value)
        for replay in (False, True):       # bench-learning's two trainers
            ml = dataclasses.asdict(learning.stream_config(replay))
            for path, value in config_leaves(ml, "ml."):
                values.setdefault(path, set()).add(value)
        assert len(traffic) == 37
        assert len(values) == 27
        assert sorted(path for path, seen in values.items()
                      if len(seen) < 2) == sorted(ONE_VALUED)
        assert all(ONE_VALUED.values())
        for name in DERIVED:
            assert name not in values
            assert all(config.n_detector_frequencies
                       * config.n_detector_directions
                       == config.ml.model.spectrum_dim for config in traffic)

    def test_every_spec_field_takes_two_values_in_use(self, monkeypatch):
        """A ``CampaignSpec`` field the launched specs leave at one value
        is a constant, unless ``ONE_VALUED_SPEC_FIELDS`` says why it stays
        a field."""
        monkeypatch.syspath_prepend(ROOT)
        values = {}
        for spec in spec_traffic():
            for name, value in spec.to_dict().items():
                values.setdefault(name, set()).add(
                    json.dumps(value, sort_keys=True))
        assert sorted(values) == sorted(field.name for field
                                        in dataclasses.fields(CampaignSpec))
        assert sorted(name for name, seen in values.items()
                      if len(seen) < 2) == sorted(ONE_VALUED_SPEC_FIELDS)

    def test_a_campaign_launch_takes_exactly_these_options(self):
        """One concurrent executor; a spec carries no execution hints, and
        a cache is named at launch."""
        with pytest.raises(ValueError, match="valid executors: serial, workers$"):
            executor_for({"executor": "threads"})
        with pytest.raises(ValueError,
                           match="valid campaign presets: campaign-smoke$"):
            get_campaign_preset("campaign-large")
        assert parameters_of(executor_for) == ["options"]
        assert [field.name for field in dataclasses.fields(CampaignSpec)] == [
            "name", "base_preset", "base_config", "parameters", "repetitions",
            "n_steps", "seed"]
        assert [field.name for field in dataclasses.fields(RunSpec)] == [
            "run_id", "index", "params", "config", "n_steps", "repetition"]
        assert flags_of(_build_parser(), "campaign", "run") == [
            "--cache-dir", "--executor", "--help", "--json", "--max-runs",
            "--max-workers", "--preset", "--spec", "--store", "-h"]
        assert jobs.EXECUTOR_OPTION_KEYS == ("executor", "max_workers",
                                             "cache_dir")
        # submit sends run's spec and executor flags; the store and the
        # launch size are the service's
        assert flags_of(_build_parser(), "campaign", "submit") == sorted(
            set(flags_of(_build_parser(), "campaign", "run"))
            - {"--store", "--max-runs"} | {"--url"})
        assert flags_of(_build_parser(), "trace") == [
            "--help", "--json", "--run", "--store-dir", "-h"]
        assert parameters_of(jsonable) == ["value"]

    def test_every_command_binds_its_handler(self):
        """A sub-command is declared once, beside its handler: every leaf
        of the parser carries a callable ``handler`` default."""
        def leaves(parser, path):
            subcommands = [action for action in parser._actions
                           if isinstance(action, argparse._SubParsersAction)]
            if not subcommands:
                yield path, parser
            for action in subcommands:
                for name, child in action.choices.items():
                    yield from leaves(child, path + (name,))

        assert [name for name in ("_COMMANDS", "_CAMPAIGN_COMMANDS",
                                  "_cmd_campaign", "_cmd_bench", "_study_error",
                                  "_campaign_executor")
                if hasattr(repro.cli, name)] == []
        found = dict(leaves(_build_parser(), ()))
        assert len(found) == 16
        assert {path: callable(parser.get_default("handler"))
                for path, parser in found.items()} \
            == {path: True for path in found}

    def test_removed_campaign_options_are_rejected_not_ignored(self, capsys):
        smoke = get_campaign_preset("campaign-smoke").to_dict()
        with pytest.raises(ValueError,
                           match=r"unknown CampaignSpec keys \['routing'\]"):
            CampaignSpec.from_dict(dict(smoke, routing={}))
        with pytest.raises(ValueError, match="valid campaign presets"):
            get_campaign_preset("campaign-smoke-sharded")
        for command, url in (("run", []), ("submit", ["--url", "http://x"])):
            for flag in ("--shards", "--route", "--inner-executor",
                         "--retries", "--timeout"):
                with pytest.raises(SystemExit) as exited:
                    _build_parser().parse_args(
                        ["campaign", command, *url, "--preset",
                         "campaign-smoke", flag, "2"])
                assert exited.value.code == 2
                assert f"unrecognized arguments: {flag} 2" \
                    in capsys.readouterr().err
        # so are the submit keys
        for key in ("retries", "timeout"):
            with pytest.raises(ValueError,
                               match=rf"unknown submission keys \['{key}'\]; "
                                     r"valid keys: cache_dir, executor, "
                                     r"max_workers, preset, spec$"):
                parse_submission({"preset": "campaign-smoke", key: 1})
        with pytest.raises(TypeError, match="strict"):
            jsonable(float("nan"), strict=False)
        # a removed flag is not read as a prefix of a surviving one
        with pytest.raises(SystemExit) as exited:
            _build_parser().parse_args(["trace", "--store", "x"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --store" in capsys.readouterr().err

    def test_the_run_path_takes_exactly_these_options(self):
        # a run is one attempt: no retries, no timeout
        assert parameters_of(WorkerPoolExecutor.__init__) == [
            "max_workers", "pool"]
        assert [cls.__name__ for cls in (CampaignExecutor, SerialExecutor)
                if "__init__" in vars(cls)] == []
        assert parameters_of(WorkerPool.run) == [
            "payloads", "worker", "counters", "on_record", "should_stop"]
        assert parameters_of(campaign_scheduler._attempt_run) == [
            "payload", "worker"]
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
            "broker", "step_times"]
        assert parameters_of(NoOpConsumer.run) == []
        # a step is flat arrays: no engines, rank blocks or step protocol
        assert [name for name in ("SSTWriterEngine", "SSTReaderEngine",
                                  "Variable", "Block", "StepStatus",
                                  "EndOfStreamError")
                if hasattr(repro.streaming, name)] == []
        assert importlib.util.find_spec("repro.streaming.engine") is None
        assert importlib.util.find_spec("repro.streaming.variable") is None
        # every consumer queue is streaming.queue_limit deep
        assert parameters_of(WorkflowSession.__init__) == [
            "config", "driver", "monitors", "on_step", "on_iteration_consumed"]
        assert parameters_of(WorkflowBuilder.add_consumer) == ["name", "kind"]
        assert parameters_of(MLAppConsumer.__init__) == ["series", "config", "rng"]
        assert parameters_of(HistogramMonitorConsumer.__init__) == ["series"]
        assert parameters_of(InTransitTrainer.__init__) == [
            "model", "optimizer", "buffer", "loss", "n_rep"]
        assert [field.name for field in dataclasses.fields(StreamingConfig)] \
            == ["queue_limit", "sample_interval", "stream_name",
                "particle_subsample_fraction", "reduce_precision"]

    def test_the_pic_step_takes_exactly_these_options(self):
        """One kernel per phase; the reference kernels are oracles, not a
        setting.  These are the names the simulation step resolves; beside
        their inputs they take only scratch and output buffers (and the push
        the slice of the species it pushes)."""
        assert [field.name for field in dataclasses.fields(SimulationConfig)] \
            == ["grid", "dt"]
        assert [field.name for field in dataclasses.fields(KHIConfig)] == [
            "grid_shape", "density", "beta", "particles_per_cell", "seed"]
        # every species is pushed; the KHI geometry is one pair of constants
        assert field_names(ParticleSpecies) == [
            "name", "charge", "mass", "positions", "momenta", "weights"]
        assert parameters_of(ParticleSpecies.protons) == [
            "positions", "momenta", "weights"]
        assert parameters_of(label_particles) == [
            "positions", "momenta", "extent"]
        assert parameters_of(pic_simulation.gather_fields) == [
            "grid", "positions", "workspace", "out"]
        assert parameters_of(pic_simulation.deposit_charge_cic) == [
            "grid", "positions", "charge", "weights"]
        assert parameters_of(pic_simulation.deposit_current_esirkepov) == [
            "grid", "old_positions", "new_positions", "charge", "weights",
            "dt", "workspace", "blocks"]
        assert parameters_of(pic_simulation.boris_push_fused) == [
            "species", "e_fields", "b_fields", "dt", "workspace", "particles"]
        # the new positions come unwrapped; the step wraps them, and a wrap
        # always names its box
        assert parameters_of(pic_simulation.advance_positions) == [
            "species", "dt", "out"]
        assert parameters_of(pic_simulation.wrap_periodic) == [
            "values", "extent", "out"]
        extent = inspect.signature(
            pic_simulation.wrap_periodic).parameters["extent"]
        assert extent.default is inspect.Parameter.empty

    def test_options_that_no_longer_exist_are_rejected_not_ignored(self):
        with pytest.raises(ValueError, match="valid keys: .*queue_limit"):
            WorkflowConfig.from_dict({"streaming": {"data_plane": "mpi"}})
        with pytest.raises(ValueError,
                           match=r"unknown KHIConfig keys \['kernel'\]; valid keys"):
            WorkflowConfig.from_dict({"khi": {"kernel": "fused"}})
        for section, keys in REMOVED_OPTIONS.items():
            for key in keys:
                data = {key: None}
                for name in reversed(section):
                    data = {name: data}
                with pytest.raises(ValueError,
                                   match=rf"unknown \w+ keys \['{key}'\]; "
                                         r"valid keys: "):
                    WorkflowConfig.from_dict(data)
        assert sum(map(len, REMOVED_OPTIONS.values())) == 15
        # the name in two pieces: a grep for it over the tree stays empty
        redispatch_threshold = "straggler" + "_after"
        with pytest.raises(TypeError, match=redispatch_threshold):
            WorkerPoolExecutor(**{redispatch_threshold: 1.0})

    def test_mlcore_exports_exactly_what_a_run_or_an_oracle_reaches(self):
        """The PyTorch stand-in is what the model, its trainer and the
        fused nodes' tape oracles use, and no more."""
        assert repro.mlcore.__all__ == [
            "Tensor", "no_grad", "Module", "Parameter",
            "functional", "layers", "losses", "optim"]
        assert mlcore_layers.__all__ == [
            "Linear", "MLP", "ReLU", "Sequential", "ModuleList",
            "PointwiseConv", "ConvTranspose3d", "MaxPoolPoints"]
        assert public_names(F) == [
            "affine", "affine_backward", "affine_forward",
            "pairwise_squared_distances", "reparameterize", "take_columns",
            "weighted_sum"]
        assert public_names(mlcore_losses) == [
            "MMD_SCALES", "chamfer_distance", "kl_divergence_normal", "mmd_imq",
            "mse_loss"]
        assert public_names(optim) == [
            "Adam", "Optimizer", "PAPER_ADAM_BETAS", "PAPER_ADAM_EPS",
            "PAPER_BASE_LEARNING_RATE", "PAPER_WEIGHT_DECAY", "ParamGroup",
            "make_block_param_groups"]

    def test_mlcore_options_with_one_value_are_constants(self):
        assert parameters_of(mlcore_losses.chamfer_distance) == ["a", "b"]
        assert parameters_of(optim.make_block_param_groups) == [
            "vae_params", "inn_params", "base_lr", "m_vae"]
        assert parameters_of(mlcore_layers.MLP.__init__) == ["dims", "rng"]
        assert parameters_of(mlcore_layers.MaxPoolPoints.__init__) == []
        assert parameters_of(mlcore_init.kaiming_uniform) == ["shape", "rng"]
        assert parameters_of(mlcore_layers.PointwiseConv.__init__) == [
            "in_channels", "out_channels", "rng"]
        assert parameters_of(mlcore_layers.ConvTranspose3d.__init__) == [
            "in_channels", "out_channels", "rng"]
        assert parameters_of(Module.load_state_dict) == ["state"]
        assert parameters_of(Tensor.__init__) == ["data", "requires_grad"]
        assert parameters_of(Parameter.__init__) == ["data"]
        assert "name" not in Tensor.__slots__

    def test_removed_mlcore_names_are_gone_not_aliased(self):
        removed = {
            F: ["relu", "leaky_relu", "tanh", "sigmoid", "softplus", "exp", "log",
                "sqrt", "clamp", "softmax", "log_softmax", "one_hot", "dropout",
                "linear", "mse", "stack", "split", "where", "concatenate"],
            tensor_module: ["stack", "split", "where", "tensor", "zeros", "ones",
                            "randn", "is_grad_enabled"],
            Tensor: ["size", "dtype", "__len__", "__repr__", "detach", "clone",
                     "__rsub__", "__pow__", "__rmatmul__", "__gt__", "__lt__",
                     "__ge__", "__le__", "log", "sqrt", "sigmoid", "leaky_relu",
                     "softplus", "abs"],
            mlcore_layers: ["LeakyReLU", "Tanh", "Sigmoid", "Softplus", "Dropout"],
            mlcore_layers.Sequential: ["append", "__getitem__"],
            mlcore_layers.ModuleList: ["__getitem__", "forward"],
            mlcore_layers.ConvTranspose3d: ["output_shape"],
            mlcore_init: ["xavier_uniform", "xavier_normal", "zeros"],
            mlcore_losses: ["l1_loss", "gaussian_nll", "sinkhorn_emd",
                            "_logsumexp"],
            Module: ["register_parameter", "named_modules", "modules", "forward",
                     "zero_grad"],
            optim: ["SGD", "sqrt_lr_scaling"],
            optim.Optimizer: ["set_lr", "add_param_group", "step_count", "step"],
            GlowCouplingBlock: ["log_det_jacobian", "_scale_shift"],
            PointNetEncoder: ["global_features"],
        }
        assert {owner: [name for name in names if name in vars(owner)]
                for owner, names in removed.items()} \
            == {owner: [] for owner in removed}
        assert importlib.util.find_spec("repro.mlcore.serialization") is None
        # warm-up and clipping went with the options that reached them
        assert importlib.util.find_spec("repro.mlcore.schedulers") is None
        assert importlib.util.find_spec("repro.mlcore.layers.dropout") is None
        # EMD and the sqrt rule went with their only caller, benchmarks/
        assert not os.path.exists(os.path.join(ROOT, "benchmarks"))

    def test_the_pool_keeps_the_counters_the_benchmark_reads(self):
        stats = WorkerPool(1).stats()     # spawns lazily: no process here
        assert {"dispatched_batches", "requeued_runs",
                "straggler_redispatches"} <= set(stats)


def field_names(cls):
    return [field.name for field in dataclasses.fields(cls)]


class TestFigureModels:
    def test_each_package_owns_one_decision(self):
        """``streaming`` is the transport, ``core`` the coupled app, and
        every Frontier-scale figure model lives in ``perfmodel``."""
        assert repro.streaming.__all__ == [
            "ParticleSubsampleReducer", "PrecisionReducer", "ReductionPipeline",
            "Step", "SSTBroker", "NoOpConsumer"]
        assert repro.perfmodel.__all__ == [
            "MachineSpec", "FRONTIER", "PlacementMode", "ResourcePlan",
            "FOMScalingModel", "StreamingScalingStudy", "StreamingScalingPoint",
            "measure_stream_throughput", "DDPWeakScalingModel", "DDPScalingPoint"]
        for module in ("repro.streaming.dataplane", "repro.streaming.throughput",
                       "repro.core.placement"):
            assert importlib.util.find_spec(module) is None, module
        assert [name for name in ("PlacementMode", "ResourcePlan")
                if hasattr(repro.core, name)] == []

    def test_figure_model_options_with_one_value_are_constants(self):
        assert field_names(StreamingScalingStudy) == ["bytes_per_node"]
        assert parameters_of(StreamingScalingStudy.run) == []
        assert "contention_exponent" not in field_names(
            perfmodel_streaming.ModeledDataPlane)
        assert field_names(ResourcePlan) == ["n_nodes", "mode"]
        assert parameters_of(DDPWeakScalingModel.scan) == ["node_counts"]
        assert parameters_of(DDPWeakScalingModel.deficit_attribution) == ["n_nodes"]
        assert parameters_of(MachineSpec.filesystem_bandwidth_per_node) == []
        with pytest.raises(ValueError, match="unknown data plane"):
            perfmodel_streaming.make_data_plane("tcp")

    def test_names_nothing_reaches_are_gone_not_aliased(self):
        removed = {
            perfmodel_streaming: ["DataPlane", "remove_outliers"],
            perfmodel_streaming.ThroughputResult: ["min_throughput",
                                                   "max_throughput"],
            perfmodel_fom: ["FOMScalingPoint"],
            FOMScalingModel: ["scan", "time_per_step"],
            DDPWeakScalingModel: ["efficiency", "from_measurement"],
            MachineSpec: ["total_gpus", "total_gcds"],
            StreamingScalingPoint: ["supported", "terabytes_per_second"],
            jobs.CampaignJobManager: ["cancel"],
            RunEventBus: ["dropped_count"],
            service_sse.SSEEvent: ["__getitem__"],
            service_sse: ["iter_events"],
            WorkflowBuilder: ["config_file"],
            WorkflowSession: ["primary"],
            workflow_drivers: ["register_driver"],
            campaign_presets: ["register_campaign_preset"],
            campaign_spec: ["RUN_LEVEL_KEYS", "SAMPLERS"],
            RunSpec: ["build_config", "driver"],
            pic_diagnostics.EnergyHistory: ["as_dict", "magnetic_growth_factor"],
            pic_diagnostics: ["current_sheet_indicator", "density_field"],
            YeeGrid: ["B", "E", "J"],
            KHIConfig: ["skin_depth"],
            ParticleSpecies: ["charge_to_mass", "empty", "momentum_total"],
            PICSimulation: ["energy_report"],
            RegionEvaluation: ["mean_error"],
            PointCloudDecoder: ["n_output_points"],
        }
        assert {owner: [name for name in names if name in vars(owner)]
                for owner, names in removed.items()} \
            == {owner: [] for owner in removed}


def test_every_repro_module_imports_without_scipy():
    """numpy is the one dependency: with scipy unimportable, every module
    of the package still imports."""
    code = ("import importlib, pkgutil, sys\n"
            "sys.modules['scipy'] = None\n"
            "import repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr

