"""WorkflowBuilder / WorkflowSession: composable assembly of the coupled run.

The paper's workflow is loosely coupled by construction: producer and
consumers only ever meet through the openPMD-over-SST stream.  The session
object reflects that — it assembles named components around one stream:

* one **producer**: the KHI PIC simulation with the streaming output plugin,
* one **stream**: a :class:`repro.workflow.fanout.FanOutBroker` teeing every
  step into a bounded per-consumer queue,
* its **consumers**: the MLapp, named ``mlapp``, and any histogram
  monitors attached beside it,
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

from typing import Callable, Dict, List, Sequence, TYPE_CHECKING, Union

from repro.core.config import WorkflowConfig
from repro.core.producer import StreamingProducerPlugin
from repro.core.transforms import RegionPartition
from repro.openpmd.series import Series
from repro.pic.khi import make_khi_simulation
from repro.pic.simulation import PICSimulation
from repro.radiation.detector import RadiationDetector
from repro.streaming.broker import SSTBroker
from repro.streaming.reduction import ReductionPipeline
from repro.telemetry.spans import Timer
from repro.utils.rng import derive_seed, seeded_rng
from repro.workflow.consumers import HistogramMonitorConsumer, MLAppConsumer
from repro.workflow.drivers import PipelinedDriver, SerialDriver, driver_for
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


class WorkflowSession:
    """One assembled, single-use coupled run.

    Prefer :class:`WorkflowBuilder` over calling this constructor directly.
    """

    def __init__(self, config: WorkflowConfig,
                 driver: Union[SerialDriver, PipelinedDriver],
                 monitors: Sequence[str], on_step: Sequence[StepHook],
                 on_iteration_consumed: Sequence[IterationHook]) -> None:
        self.config = config
        self.driver = driver
        self.on_step = list(on_step)
        self.on_iteration_consumed = list(on_iteration_consumed)
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
        names = ["mlapp", *monitors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate consumer names: {names}")
        if "pic" in names:
            raise ValueError("'pic' names the simulation's timer section, "
                             "not a consumer")
        self.brokers: Dict[str, SSTBroker] = {
            name: SSTBroker(f"{cfg.streaming.stream_name}#{name}",
                            queue_limit=cfg.streaming.queue_limit)
            for name in names}
        self.consumers: Dict[str, Union[MLAppConsumer, HistogramMonitorConsumer]] = {
            "mlapp": MLAppConsumer(Series(self.brokers["mlapp"]), cfg.ml,
                                   rng=seeded_rng(derive_seed(cfg.seed, 4)))}
        for name in monitors:
            self.consumers[name] = HistogramMonitorConsumer(Series(self.brokers[name]))

        # --- the stream: one writer teeing into every consumer queue -------- #
        self.fanout = FanOutBroker(cfg.streaming.stream_name,
                                   list(self.brokers.values()))
        self.writer_series = Series(self.fanout)
        reduction = None
        if (cfg.streaming.particle_subsample_fraction < 1.0
                or cfg.streaming.reduce_precision):
            reduction = ReductionPipeline(cfg.streaming.particle_subsample_fraction,
                                          cfg.streaming.reduce_precision,
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
    def run(self, n_steps: int, keep_for_evaluation: int = 0) -> RunResult:
        """Drive the session for ``n_steps`` with the configured driver,
        holding out ``keep_for_evaluation`` samples of every streamed
        iteration for :meth:`evaluate`."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self._consumed:
            raise RuntimeError(
                "session already consumed: a stream cannot be rewound, build "
                "a new WorkflowSession to run again")
        self._consumed = True
        self.consumers["mlapp"].keep_for_evaluation = keep_for_evaluation
        return self.driver.execute(self, n_steps)

    # -- driver-facing helpers ----------------------------------------------- #
    def fire_step(self, step_index: int) -> None:
        for hook in self.on_step:
            hook(self, step_index)

    def notify_iteration(self, consumer_name: str, iteration_index: int,
                         n_samples: int) -> None:
        for hook in self.on_iteration_consumed:
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
            training_iterations=len(mlapp.history),
            bytes_streamed=self.producer.bytes_streamed,
            wall_time=wall_time,
            simulation_time=totals.get("pic", 0.0),
            training_time=totals.get("mlapp", 0.0),
            final_losses=mlapp.loss_summary(),
            loss_history_total=list(mlapp.history.series("total"))
            if len(mlapp.history) else [],
        )

    # -- convenience accessors ------------------------------------------------ #
    @property
    def mlapp(self):
        """The session's MLapp: the ``mlapp`` consumer's trainer."""
        return self.consumers["mlapp"].mlapp

    @property
    def model(self):
        return self.mlapp.model

    def evaluate(self, n_posterior_samples: int = 4) -> "InversionReport":
        """Evaluate the trained model on the held-out streamed samples (Fig. 9)."""
        from repro.analysis.evaluation import evaluate_inversion

        mlapp = self.mlapp
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
        self._driver: Union[SerialDriver, PipelinedDriver] = SerialDriver()
        self._monitors: List[str] = []
        self._on_step: List[StepHook] = []
        self._on_iteration_consumed: List[IterationHook] = []

    # -- configuration -------------------------------------------------------- #
    def config(self, config: WorkflowConfig) -> "WorkflowBuilder":
        self._config = config
        return self

    def preset(self, name: str) -> "WorkflowBuilder":
        """Use a named preset from :mod:`repro.workflow.presets`."""
        self._config = get_preset(name)
        return self

    # -- execution strategy ---------------------------------------------------- #
    def driver(self, driver: str, **driver_kwargs) -> "WorkflowBuilder":
        """Select the execution driver by name: ``serial`` (the default)
        or ``pipelined``."""
        self._driver = driver_for(driver, **driver_kwargs)
        return self

    # -- consumers -------------------------------------------------------------- #
    def add_consumer(self, name: str, kind: str) -> "WorkflowBuilder":
        """Attach a consumer called ``name`` to the stream beside the MLapp;
        its ``kind`` is ``histogram-monitor``."""
        if kind != HistogramMonitorConsumer.kind:
            raise ValueError(f"unknown consumer kind {kind!r}; valid kinds: "
                             f"{HistogramMonitorConsumer.kind}")
        self._monitors.append(name)
        return self

    # -- lifecycle hooks ---------------------------------------------------------- #
    def on_step(self, hook: StepHook) -> "WorkflowBuilder":
        self._on_step.append(hook)
        return self

    def on_iteration_consumed(self, hook: IterationHook) -> "WorkflowBuilder":
        self._on_iteration_consumed.append(hook)
        return self

    # -- assembly --------------------------------------------------------------- #
    def build(self) -> WorkflowSession:
        return WorkflowSession(self._config, self._driver, self._monitors,
                               self._on_step, self._on_iteration_consumed)
