"""WorkflowBuilder / WorkflowSession: composable assembly of the coupled run.

The paper's workflow is loosely coupled by construction: producer and
consumers only ever meet through the openPMD-over-SST stream.  The session
object reflects that — it assembles named components around one stream:

* one **producer**: the KHI PIC simulation with the streaming output plugin,
* one **stream**: a :class:`repro.workflow.fanout.FanOutBroker` teeing every
  step into a bounded per-consumer queue,
* *N* **consumers** (the MLapp by default; more via the consumer registry),
* one **execution driver** (serial / pipelined) that owns the
  run schedule and returns a uniform :class:`repro.workflow.report.RunResult`.

Typical use::

    from repro.workflow import WorkflowBuilder

    session = (WorkflowBuilder()
               .preset("laptop")
               .driver("pipelined")
               .add_consumer("monitor", kind="histogram-monitor")
               .on_step(lambda s, i: print("step", i))
               .build())
    result = session.run(5)
    print(result.report.summary())

A session is single-use (streams cannot rewind): calling :meth:`run` twice
raises ``RuntimeError("session already consumed")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING, Union

from repro.core.config import WorkflowConfig
from repro.core.producer import StreamingProducerPlugin
from repro.core.transforms import RegionPartition
from repro.openpmd.series import Series
from repro.pic.khi import make_khi_simulation
from repro.pic.simulation import PICSimulation
from repro.radiation.detector import RadiationDetector
from repro.streaming.broker import SSTBroker
from repro.telemetry.spans import Timer
from repro.utils.rng import derive_seed, seeded_rng
from repro.workflow.consumers import (ConsumerFactory, MLAppConsumer, StreamConsumer,
                                      get_consumer_factory)
from repro.workflow.drivers import ExecutionDriver, SerialDriver, get_driver
from repro.workflow.fanout import FanOutBroker
from repro.workflow.presets import get_preset
from repro.workflow.report import RunResult, WorkflowReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.evaluation import InversionReport

#: ``hook(session, step_index)`` after every simulation step.
StepHook = Callable[["WorkflowSession", int], None]
#: ``hook(session, consumer_name, iteration_index, n_samples)`` after a
#: consumer finishes one streamed iteration.
IterationHook = Callable[["WorkflowSession", str, int, int], None]


@dataclass
class WorkflowHooks:
    """Lifecycle callbacks observed by every driver."""

    on_step: List[StepHook] = field(default_factory=list)
    on_iteration_consumed: List[IterationHook] = field(default_factory=list)


@dataclass
class ConsumerSpec:
    """A named consumer to attach to the session's stream."""

    name: str
    factory: ConsumerFactory


class WorkflowSession:
    """One assembled, single-use coupled run.

    Prefer :class:`WorkflowBuilder` over calling this constructor directly.
    """

    PRIMARY_CONSUMER = "mlapp"

    def __init__(self, config: WorkflowConfig, driver: ExecutionDriver,
                 consumer_specs: List[ConsumerSpec],
                 hooks: WorkflowHooks) -> None:
        self.config = config
        self.driver = driver
        self.hooks = hooks
        cfg = self.config

        # --- producer: PIC simulation + streaming output plugin ------------ #
        self.simulation: PICSimulation = make_khi_simulation(
            cfg.khi, rng=seeded_rng(derive_seed(cfg.seed, 1)))
        self.detector = RadiationDetector.for_khi(
            density=cfg.khi.density,
            n_directions=cfg.n_detector_directions,
            n_frequencies=cfg.n_detector_frequencies)
        self.partition = RegionPartition(cfg.khi.grid_config, cfg.region_counts)

        # --- consumers: one bounded queue + reader series each -------------- #
        if not consumer_specs:
            raise ValueError("a workflow session needs at least one consumer")
        names = [spec.name for spec in consumer_specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate consumer names: {names}")
        if "pic" in names:
            raise ValueError("'pic' names the simulation's timer section, "
                             "not a consumer")
        self.brokers: Dict[str, SSTBroker] = {}
        self.consumer_series: Dict[str, Series] = {}
        self.consumers: Dict[str, StreamConsumer] = {}
        for position, spec in enumerate(consumer_specs):
            broker = SSTBroker(f"{cfg.streaming.stream_name}#{spec.name}",
                               queue_limit=cfg.streaming.queue_limit)
            series = Series(broker)
            # the primary consumer keeps the seed's RNG derivation, so a
            # default session reproduces the seed's results bit-for-bit
            stream_index = 4 if spec.name == self.PRIMARY_CONSUMER else 10 + position
            rng = seeded_rng(derive_seed(cfg.seed, stream_index))
            self.brokers[spec.name] = broker
            self.consumer_series[spec.name] = series
            self.consumers[spec.name] = spec.factory(spec.name, series, self, rng)
        self.primary_name = names[0]

        # --- the stream: one writer teeing into every consumer queue -------- #
        self.fanout = FanOutBroker(cfg.streaming.stream_name,
                                   list(self.brokers.values()))
        self.writer_series = Series(self.fanout)
        reduction = cfg.streaming.build_reduction_pipeline(
            rng=seeded_rng(derive_seed(cfg.seed, 6)))
        self.producer = StreamingProducerPlugin(
            self.writer_series, self.detector, self.partition,
            n_points=cfg.ml.model.n_input_points,
            sample_interval=cfg.streaming.sample_interval,
            reduction=reduction,
            rng=seeded_rng(derive_seed(cfg.seed, 3)))
        self.simulation.add_plugin(self.producer)
        #: the drivers' sections: ``pic`` around each ``simulation.step()``
        #: and, per consumer, its name around each drain
        self.timer = Timer("workflow")
        self._consumed = False

    # -- running ------------------------------------------------------------ #
    def run(self, n_steps: int, keep_for_evaluation: int = 1) -> RunResult:
        """Drive the session for ``n_steps`` with the configured driver."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self._consumed:
            raise RuntimeError(
                "session already consumed: a stream cannot be rewound, build "
                "a new WorkflowSession to run again")
        self._consumed = True
        for consumer in self.consumers.values():
            consumer.configure_run(keep_for_evaluation)
        return self.driver.execute(self, n_steps)

    # -- driver-facing helpers ----------------------------------------------- #
    def fire_step(self, step_index: int) -> None:
        for hook in self.hooks.on_step:
            hook(self, step_index)

    def notify_iteration(self, consumer_name: str, iteration_index: int,
                         n_samples: int) -> None:
        for hook in self.hooks.on_iteration_consumed:
            hook(self, consumer_name, iteration_index, n_samples)

    def queue_depth(self) -> int:
        """Depth of the fullest consumer queue right now."""
        return self.fanout.queued_steps

    def build_report(self, n_steps: int, wall_time: float) -> WorkflowReport:
        """The run's report; its PIC and training times are :attr:`timer`'s."""
        mlapp = self.mlapp
        totals = self.timer.totals()
        return WorkflowReport(
            n_steps=n_steps,
            iterations_streamed=self.producer.iterations_streamed,
            samples_streamed=self.producer.samples_streamed,
            training_iterations=len(mlapp.history) if mlapp is not None else 0,
            bytes_streamed=self.producer.bytes_streamed,
            wall_time=wall_time,
            simulation_time=totals.get("pic", 0.0),
            training_time=totals.get(self.primary_name, 0.0),
            final_losses=mlapp.loss_summary() if mlapp is not None else {},
            loss_history_total=list(mlapp.history.series("total"))
            if mlapp is not None and len(mlapp.history) else [],
        )

    # -- convenience accessors ------------------------------------------------ #
    @property
    def mlapp(self):
        """The first training consumer's MLapp (``None`` if there is none)."""
        for consumer in self.consumers.values():
            if isinstance(consumer, MLAppConsumer):
                return consumer.mlapp
        return None

    @property
    def model(self):
        mlapp = self.mlapp
        return mlapp.model if mlapp is not None else None

    def evaluate(self, n_posterior_samples: int = 4) -> "InversionReport":
        """Evaluate the trained model on the held-out streamed samples (Fig. 9)."""
        from repro.analysis.evaluation import evaluate_inversion

        mlapp = self.mlapp
        if mlapp is None:
            raise RuntimeError("this session has no training consumer to evaluate")
        if not mlapp.evaluation_samples:
            raise RuntimeError("no evaluation samples were kept; run() with "
                               "keep_for_evaluation >= 1 first")
        return evaluate_inversion(mlapp.model, mlapp.evaluation_samples,
                                  n_posterior_samples=n_posterior_samples,
                                  rng=seeded_rng(derive_seed(self.config.seed, 5)))


class WorkflowBuilder:
    """Fluent assembly of a :class:`WorkflowSession`.

    Every method returns the builder; :meth:`build` produces a fresh,
    single-use session (the builder itself can be reused).
    """

    def __init__(self) -> None:
        self._config = WorkflowConfig()
        self._driver: Optional[ExecutionDriver] = None
        self._consumer_specs: List[ConsumerSpec] = [
            ConsumerSpec(WorkflowSession.PRIMARY_CONSUMER,
                         get_consumer_factory("mlapp"))]
        self._hooks = WorkflowHooks()

    # -- configuration -------------------------------------------------------- #
    def config(self, config: WorkflowConfig) -> "WorkflowBuilder":
        self._config = config
        return self

    def preset(self, name: str) -> "WorkflowBuilder":
        """Use a named preset from :mod:`repro.workflow.presets`."""
        self._config = get_preset(name)
        return self

    # -- execution strategy ---------------------------------------------------- #
    def driver(self, driver: Union[str, ExecutionDriver],
               **driver_kwargs) -> "WorkflowBuilder":
        """Select the execution driver by name or instance."""
        if isinstance(driver, ExecutionDriver):
            if driver_kwargs:
                raise ValueError("driver kwargs only apply when passing a name")
            self._driver = driver
        else:
            self._driver = get_driver(driver, **driver_kwargs)
        return self

    # -- consumers -------------------------------------------------------------- #
    def add_consumer(self, name: str, kind: str) -> "WorkflowBuilder":
        """Attach an additional consumer called ``name``, of a registered
        ``kind`` (see :func:`repro.workflow.consumers.available_consumers`),
        to the stream."""
        self._consumer_specs.append(ConsumerSpec(name, get_consumer_factory(kind)))
        return self

    # -- lifecycle hooks ---------------------------------------------------------- #
    def on_step(self, hook: StepHook) -> "WorkflowBuilder":
        self._hooks.on_step.append(hook)
        return self

    def on_iteration_consumed(self, hook: IterationHook) -> "WorkflowBuilder":
        self._hooks.on_iteration_consumed.append(hook)
        return self

    # -- assembly --------------------------------------------------------------- #
    def build(self) -> WorkflowSession:
        hooks = WorkflowHooks(on_step=list(self._hooks.on_step),
                              on_iteration_consumed=list(
                                  self._hooks.on_iteration_consumed))
        return WorkflowSession(config=self._config,
                               driver=self._driver or SerialDriver(),
                               consumer_specs=list(self._consumer_specs),
                               hooks=hooks)
