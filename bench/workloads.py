"""The five benchmark workloads, their output checks and per-layer metrics.

Every workload drives the program through its public API only
(``WorkflowBuilder``, ``get_preset``, ``CampaignSpec``, ``run_campaign``,
``WorkerPoolExecutor``/``shared_pool``, ``ResultCache``, ``create_server``,
``ServiceClient``) with program defaults (telemetry on, ``kernel="fused"``).
The load is closed loop with one client: the next repetition starts when
the previous one has returned.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``; the sizes here are the ones those files quote.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import threading
import time
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign import (CampaignSpec, CampaignStore, ResultCache,
                            SerialExecutor, WorkerPoolExecutor, aggregate,
                            run_campaign, shared_pool)
from repro.service import RunEventBus, ServiceClient, create_server
from repro.workflow import WorkflowBuilder, get_preset

from bench.tracing import (Tracer, coverage, installed, layer_times,
                           time_inside)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
DEFAULT_SEED = 11
#: worker processes of the pool workloads — the box has two cores
N_WORKERS = 2
#: share of a run's final iterations whose mean loss the reference band checks
LOSS_TAIL_SHARE = 0.1


# --------------------------------------------------------------------------- #
# small statistics
# --------------------------------------------------------------------------- #
def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def has_tail(n_samples: int, q: float, beyond: int = 10) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return n_samples * (1.0 - q / 100.0) >= beyond


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


# --------------------------------------------------------------------------- #
# one repetition's observations
# --------------------------------------------------------------------------- #
@dataclass
class Rep:
    wall_s: float                   #: the timed region
    total_s: float                  #: timed region plus per-run build
    steps: int                      #: simulation steps completed in it
    runs: int                       #: complete runs in it
    lags_s: List[float]             #: work ready -> result at its consumer
    attempted: int                  #: operations + output checks
    failures: List[str]             #: failed operations and checks
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def steps_per_sec(self) -> float:
        return self.steps / self.wall_s

    @property
    def runs_per_sec(self) -> float:
        return self.runs / self.total_s


def checked(checks: Sequence[Tuple[str, bool]]) -> Tuple[int, List[str]]:
    """How many checks there were, and the names of those that failed."""
    return len(checks), [what for what, ok in checks if not ok]


class Workload:
    """Set-up once, then fresh repetitions; subclasses fill in the rest."""

    name = "abstract"
    root_span = "root"
    #: interleave telemetry-off repetitions in the traced run
    telemetry_overhead = False

    def __init__(self, seed: int, smoke: bool, work_dir: str) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.work_dir = work_dir
        #: failures that only show across repetitions or in the traced run
        self.late_checks: List[Tuple[str, bool]] = []
        #: (layer, wrapper seconds, program-timer seconds) of the traced run
        self.cross_check_table: List[Tuple[str, float, float]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def repetition(self, rep: int, tracer: Optional[Tracer] = None) -> Rep:
        raise NotImplementedError

    def per_layer(self, untraced: List[Rep], traced: List[Rep],
                  tracer: Tracer) -> Dict[str, float]:
        raise NotImplementedError

    def result_lag_s(self, reps: List[Rep]) -> float:
        """Work ready -> its result at the consumer: the median over the
        samples of all repetitions pooled."""
        return percentile([lag for rep in reps for lag in rep.lags_s], 50)

    def _traced(self, tracer: Optional[Tracer], rep: int):
        if tracer is None:
            return nullcontext()
        return tracer.root(self.root_span, rep)


# --------------------------------------------------------------------------- #
# coupled-* : one workflow session per repetition
# --------------------------------------------------------------------------- #
def _seeded(config, seed: int):
    return replace(config, seed=seed, khi=replace(config.khi, seed=seed))


def _train_bound(seed: int, smoke: bool):
    return _seeded(get_preset("bench-tiny"), seed)


def _pic_bound(seed: int, smoke: bool):
    config = _seeded(get_preset("bench-tiny"), seed)
    grid = (16, 32, 2) if smoke else (32, 64, 4)
    return replace(config,
                   khi=replace(config.khi, grid_shape=grid, particles_per_cell=6),
                   ml=replace(config.ml, n_rep=1))


def _overlap(seed: int, smoke: bool):
    config = _seeded(get_preset("bench-tiny"), seed)
    grid = (8, 16, 4) if smoke else (16, 32, 4)
    return replace(config,
                   khi=replace(config.khi, grid_shape=grid, particles_per_cell=4),
                   ml=replace(config.ml, n_rep=4),
                   streaming=replace(config.streaming,
                                     particle_subsample_fraction=0.5,
                                     reduce_precision=True))


@dataclass(frozen=True)
class CoupledShape:
    configure: Callable
    steps: int
    smoke_steps: int
    warm_steps: int
    driver: str = "serial"
    driver_kwargs: Tuple[Tuple[str, object], ...] = ()
    monitor: bool = False           #: attach a histogram-monitor consumer
    telemetry_overhead: bool = False


COUPLED_SHAPES: Dict[str, CoupledShape] = {
    "coupled-train-bound": CoupledShape(_train_bound, steps=80, smoke_steps=8,
                                        warm_steps=5, telemetry_overhead=True),
    "coupled-pic-bound": CoupledShape(_pic_bound, steps=8, smoke_steps=4,
                                      warm_steps=2),
    "coupled-overlap": CoupledShape(_overlap, steps=25, smoke_steps=8,
                                    warm_steps=5, driver="pipelined",
                                    driver_kwargs=(("max_in_flight", 3),),
                                    monitor=True),
}


def load_reference() -> Dict[str, object]:
    """The stored bands; none before ``make_reference.py`` has ever run."""
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {"workloads": {}}


def reference_key(name: str, steps: int) -> str:
    return f"{name}@{steps}"


class CoupledWorkload(Workload):
    root_span = "workflow.run"

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: str) -> None:
        super().__init__(seed, smoke, work_dir)
        self.name = name
        self.shape = COUPLED_SHAPES[name]
        self.telemetry_overhead = self.shape.telemetry_overhead
        self.steps = self.shape.smoke_steps if smoke else self.shape.steps
        self.config = self.shape.configure(self.seed, smoke)
        self.serial = self.shape.driver == "serial"
        self.bands = load_reference()["workloads"].get(
            reference_key(name, self.steps))
        self._first: Optional[Dict[str, object]] = None

    def _builder(self) -> WorkflowBuilder:
        builder = (WorkflowBuilder().config(self.config)
                   .driver(self.shape.driver, **dict(self.shape.driver_kwargs)))
        if self.shape.monitor:
            builder.add_consumer("monitor", kind="histogram-monitor")
        return builder

    def setup(self) -> None:
        self._builder().build().run(self.shape.warm_steps).raise_if_failed()

    def repetition(self, rep: int, tracer: Optional[Tracer] = None) -> Rep:
        stepped: Dict[int, float] = {}
        trained: Dict[int, float] = {}
        clock = time.perf_counter

        def on_step(session, index: int) -> None:
            stepped[index] = clock()

        def on_consumed(session, consumer: str, iteration: int, n: int) -> None:
            if consumer == "mlapp":
                trained[iteration] = clock()

        started = clock()
        session = (self._builder().on_step(on_step)
                   .on_iteration_consumed(on_consumed).build())
        simulation = session.simulation
        particles_before = simulation.n_macro_particles
        energy_before = simulation.total_energy()
        run_started = clock()
        with self._traced(tracer, rep):
            result = session.run(self.steps)
        ended = clock()

        report = result.report
        history = session.mlapp.history
        n_rep = self.config.ml.n_rep
        drift = simulation.total_energy() / energy_before - 1.0
        tail = max(1, int(len(history) * LOSS_TAIL_SHARE))
        final_loss = history.mean_over_last(tail) if len(history) else math.nan
        lags = [trained[index + 1] - stepped[index] for index in stepped
                if index + 1 in trained]
        checks = [
            ("run raised no producer or consumer exception", result.ok),
            ("every streamed iteration was trained on", len(lags) == self.steps),
            ("every loss term is finite",
             all(math.isfinite(value) for terms in history.terms
                 for value in terms.values())),
            ("particle count conserved",
             simulation.n_macro_particles == particles_before),
        ]
        if self.bands is None:
            checks.append((f"reference.json has bands for {self.name} at "
                           f"{self.steps} steps", False))
        else:
            low, high = self.bands["energy_drift"]
            checks.append((f"energy drift {drift:.3e} inside [{low:.3e}, "
                           f"{high:.3e}]", low <= drift <= high))
            if self.seed == DEFAULT_SEED:
                low, high = self.bands["final_loss"]
                checks.append((f"final loss {final_loss:.4f} inside "
                               f"[{low:.4f}, {high:.4f}]",
                               low <= final_loss <= high))
        fingerprint = {"loss": list(report.loss_history_total),
                       "bytes": report.bytes_streamed}
        if self.serial:
            if self._first is None:
                self._first = fingerprint
            checks.append(("loss history and bytes_streamed bit-identical "
                           "across repetitions", fingerprint == self._first))
        n_checks, failures = checked(checks)
        operations = self.steps * (2 + n_rep)   # steps, streamed, trained
        missing = (self.steps - report.n_steps) \
            + (self.steps - report.iterations_streamed) \
            + (self.steps * n_rep - report.training_iterations)
        if missing:
            failures.append(f"{missing} of {operations} steps/iterations "
                            f"did not happen")
        times = [stepped[index] for index in sorted(stepped)]
        return Rep(
            wall_s=ended - run_started, total_s=ended - started,
            steps=report.n_steps, runs=1, lags_s=lags,
            attempted=operations + n_checks, failures=failures,
            extra={
                "step_intervals": list(np.diff(times)),
                "bytes_streamed": report.bytes_streamed,
                "training_iterations": report.training_iterations,
                "max_queue_depth": result.max_queue_depth,
                "n_particles": particles_before,
                "simulation_time": report.simulation_time,
                "training_time": report.training_time,
                "pic_timer": simulation.timer.totals(),
                "trainer_timer": session.mlapp.trainer.timer.totals(),
                "energy_drift": drift, "final_loss": final_loss,
            })

    def per_layer(self, untraced: List[Rep], traced: List[Rep],
                  tracer: Tracer) -> Dict[str, float]:
        layers = layer_times(tracer.spans)
        steps = sum(rep.steps for rep in traced)
        iterations = sum(rep.extra["training_iterations"] for rep in traced)
        wall = sum(rep.wall_s for rep in traced)
        zero = (0.0, 0.0, 0)

        def self_ms(name: str, per: int) -> float:
            return 1e3 * layers.get(name, zero)[0] / per

        def total_s(name: str) -> float:
            return layers.get(name, zero)[1]

        def calls(name: str) -> int:
            return layers.get(name, zero)[2]

        pic_s = total_s("pic.step") - total_s("core.producer")
        write_wait = total_s("streaming.write_wait")
        # the trainer's starvation only: the monitor reads its own queue
        read_wait = time_inside(tracer.spans, "streaming.read_wait",
                                "workflow.consume")
        bytes_streamed = sum(rep.extra["bytes_streamed"] for rep in traced)
        intervals = [dt for rep in untraced for dt in rep.extra["step_intervals"]]
        lags = [lag for rep in untraced for lag in rep.lags_s]
        out = {
            "pic.gather_ms": self_ms("pic.gather", steps),
            "pic.push_ms": self_ms("pic.push", steps),
            "pic.deposit_ms": self_ms("pic.deposit", steps),
            "pic.fields_ms": self_ms("pic.fields", steps),
            "pic.step_self_ms": self_ms("pic.step", steps),
            "pic.particle_updates_per_sec":
                traced[0].extra["n_particles"] * steps / pic_s,
            "radiation.amplitude_ms": self_ms("radiation.amplitude", steps),
            "radiation.calls_per_step": calls("radiation.amplitude") / steps,
            "core.transforms_ms": self_ms("core.transforms", steps),
            "core.producer_ms": self_ms("core.producer", steps),
            "core.decode_ms": self_ms("core.decode", steps),
            "streaming.write_ms": self_ms("streaming.write", steps),
            "streaming.write_wait_ms": 1e3 * write_wait / steps,
            "streaming.read_wait_ms": 1e3 * read_wait / steps,
            "streaming.reduce_ms": self_ms("streaming.reduce", steps),
            "streaming.bytes_per_step": bytes_streamed / steps,
            "streaming.mb_per_sec": bytes_streamed / 1e6 / wall,
            "streaming.queue_depth_max":
                max(rep.extra["max_queue_depth"] for rep in untraced + traced),
            "workflow.fanout_ms": self_ms("workflow.fanout", steps),
            "workflow.step_interval_p50_ms": 1e3 * percentile(intervals, 50),
            "workflow.step_interval_p95_ms": 1e3 * percentile(intervals, 95)
                if has_tail(len(intervals), 95) else 0.0,
            "workflow.stream_lag_p95_ms": 1e3 * percentile(lags, 95)
                if has_tail(len(lags), 95) else 0.0,
            "workflow.producer_busy_frac":
                (total_s("pic.step") - write_wait) / wall,
            "workflow.consumer_busy_frac":
                (total_s("workflow.consume") - read_wait) / wall,
            "workflow.driver_self_ms": self_ms("workflow.driver", steps),
            "continual.ingest_ms": self_ms("continual.ingest", steps),
            "continual.batch_ms": self_ms("continual.batch", iterations),
            "continual.train_iters_per_sec":
                iterations / total_s("continual.iteration"),
            "models.forward_ms": self_ms("models.forward", iterations),
            "models.loss_ms": self_ms("models.loss", iterations),
            "mlcore.backward_ms": self_ms("mlcore.backward", iterations),
            "mlcore.optimizer_ms": self_ms("mlcore.zero_grad", iterations)
                + self_ms("mlcore.optimizer_step", iterations),
            "mlcore.pairwise_sqdist_ms":
                self_ms("mlcore.pairwise_sqdist", iterations),
            "mlcore.pairwise_sqdist_calls_per_iter":
                calls("mlcore.pairwise_sqdist") / iterations,
            "trace.coverage_frac": coverage(tracer.spans),
        }
        table = self._cross_check(traced, layers)
        out["trace.timer_max_deviation_frac"] = max(
            abs(outside / inside - 1.0) for _, outside, inside in table)
        self.cross_check_table = table
        if self.serial:
            self.late_checks.append(
                ("trace covers >= 95 % of the run",
                 out["trace.coverage_frac"] >= 0.95))
        return out

    @staticmethod
    def _cross_check(traced: List[Rep], layers) -> List[Tuple[str, float, float]]:
        """Wrapper totals (outside view) against the program's own section
        timers (inside view), in seconds over the traced repetitions."""
        def inside(timer: str, section: str) -> float:
            return sum(rep.extra[timer].get(section, 0.0) for rep in traced)

        def outside(*names: str) -> float:
            return sum(layers[name].total_s for name in names if name in layers)

        return [
            ("pic.gather", outside("pic.gather"), inside("pic_timer", "gather")),
            ("pic.push", outside("pic.push"), inside("pic_timer", "push")),
            ("pic.deposit", outside("pic.deposit"),
             inside("pic_timer", "deposit")),
            ("pic.fields", outside("pic.fields"), inside("pic_timer", "fields")),
            ("models.forward+loss", outside("models.forward", "models.loss"),
             inside("trainer_timer", "forward")),
            ("mlcore.backward", outside("mlcore.zero_grad", "mlcore.backward"),
             inside("trainer_timer", "backward")),
            ("mlcore.optimizer", outside("mlcore.optimizer_step"),
             inside("trainer_timer", "optimizer")),
        ]


# --------------------------------------------------------------------------- #
# campaign-pool and service-sse share the 8-run learning-rate sweep
# --------------------------------------------------------------------------- #
LEARNING_RATES = [1e-3, 5e-4, 2e-4, 1e-4]
#: repetition id of the cache replay's spans in the campaign-pool trace
REPLAY_REP = -1


def sweep_spec(name: str, seed: int, smoke: bool) -> CampaignSpec:
    """4 learning rates x 2 ensemble members = 8 runs (2 x 1 in smoke)."""
    return CampaignSpec(
        name=name, base_preset="bench-tiny",
        parameters={"ml.base_learning_rate":
                    LEARNING_RATES[:2] if smoke else LEARNING_RATES},
        repetitions=1 if smoke else 2, n_steps=4 if smoke else 25, seed=seed)


class SweepWorkload(Workload):
    """A sweep's eight runs are all ready at launch and come back in pairs,
    so the median arrival hops between two of them; the mean over the runs
    (the sweep's mean turnaround) moves smoothly.  Median over repetitions."""

    def result_lag_s(self, reps: List[Rep]) -> float:
        return statistics.median(statistics.fmean(rep.lags_s) for rep in reps)


def _record_checks(spec: CampaignSpec, records) -> List[Tuple[str, bool]]:
    expected = [run.run_id for run in spec.resolve()]
    return [
        ("every run completed",
         len(records) == len(expected) and all(r.completed for r in records)),
        ("records come back in spec.resolve() order",
         [record.run_id for record in records] == expected),
        ("every run's final loss is finite",
         all(math.isfinite(float(r.summary.get("final_total_loss", math.nan)))
             for r in records)),
    ]


class CampaignPoolWorkload(SweepWorkload):
    name = "campaign-pool"
    root_span = "campaign.run"

    def setup(self) -> None:
        self.pool = shared_pool(N_WORKERS)
        if not self.pool.wait_ready():
            raise RuntimeError("worker pool did not come up")
        self.cache = ResultCache(os.path.join(self.work_dir, "cache"))
        warm = replace(sweep_spec("bench-warm", self.seed, True), n_steps=2)
        self._launch(warm, "warm", self._executor())

    def _executor(self) -> WorkerPoolExecutor:
        return WorkerPoolExecutor(max_workers=N_WORKERS, pool=self.pool)

    def _launch(self, spec: CampaignSpec, tag: str, executor, cache=None,
                on_record=None):
        store = CampaignStore(os.path.join(self.work_dir, f"{tag}.jsonl"))
        return run_campaign(spec, store, executor, cache=cache,
                            on_record=on_record)

    def repetition(self, rep: int, tracer: Optional[Tracer] = None) -> Rep:
        spec = sweep_spec("bench-pool", self.seed + rep, self.smoke)
        arrivals: List[float] = []
        clock = time.perf_counter
        before = self.pool.stats()
        started = clock()
        with self._traced(tracer, rep):
            outcome = self._launch(spec, f"pool-{rep}", self._executor(),
                                   cache=self.cache,
                                   on_record=lambda _: arrivals.append(clock()))
        wall = clock() - started
        after = self.pool.stats()
        records = outcome.records
        n_checks, failures = checked(
            _record_checks(spec, records)
            + [("every run was executed, none served from cache",
                outcome.executed == len(records) and outcome.cache_hits == 0)])
        failures += [f"run {r.run_id} failed: {r.error}" for r in records
                     if not r.completed]
        return Rep(
            wall_s=wall, total_s=wall, steps=spec.n_steps * outcome.completed,
            runs=outcome.completed, lags_s=[t - started for t in arrivals],
            attempted=outcome.total_runs + n_checks, failures=failures,
            extra={"spec": spec, "records": records,
                   "pool": {key: after[key] - before[key] for key in
                            ("dispatched_batches", "requeued_runs",
                             "straggler_redispatches")}})

    def per_layer(self, untraced: List[Rep], traced: List[Rep],
                  tracer: Tracer) -> Dict[str, float]:
        # the serial baseline and the cache replay run once, on the spec the
        # first untraced repetition already executed on the pool
        first = untraced[0]
        spec, pool_records = first.extra["spec"], first.extra["records"]
        started = time.perf_counter()
        serial = self._launch(spec, "serial", SerialExecutor())
        serial_rate = serial.executed / (time.perf_counter() - started)
        started = time.perf_counter()
        with installed(tracer), tracer.root(self.root_span, rep=REPLAY_REP):
            replay = self._launch(spec, "replay", self._executor(),
                                  cache=self.cache)
        replay_s = time.perf_counter() - started
        measured = [span for span in tracer.spans if span.rep != REPLAY_REP]
        replayed = [span for span in tracer.spans if span.rep == REPLAY_REP]
        self.late_checks += [
            ("workers and serial executors aggregate identically",
             aggregate(pool_records, spec.name).deterministic_dict()
             == aggregate(serial.records, spec.name).deterministic_dict()),
            ("cache replay executed no run",
             replay.executed == 0 and replay.cache_hits == replay.total_runs),
        ]
        rate = statistics.median(rep.runs_per_sec for rep in untraced)
        rows = [record.to_dict() for rep in untraced
                for record in rep.extra["records"]]
        return dict(
            _campaign_layers(measured),
            **_run_split(rows),
            **{
                # the read path: every get of the replay is a hit
                "campaign.cache_get_ms":
                    _campaign_layers(replayed)["campaign.cache_get_ms"],
                "campaign.worker_idle_frac": statistics.median(
                    1.0 - sum(r.elapsed_s for r in rep.extra["records"])
                    / (N_WORKERS * rep.wall_s) for rep in untraced),
                "campaign.serial_runs_per_sec": serial_rate,
                "campaign.pool_efficiency": rate / (N_WORKERS * serial_rate),
                "campaign.replay_runs_per_sec": replay.total_runs / replay_s,
                "campaign.pool_dispatched_batches":
                    traced[0].extra["pool"]["dispatched_batches"],
                "campaign.pool_requeued_runs":
                    traced[0].extra["pool"]["requeued_runs"],
                "campaign.pool_straggler_redispatches":
                    traced[0].extra["pool"]["straggler_redispatches"],
                "trace.coverage_frac": coverage(measured),
            })


def _campaign_layers(spans) -> Dict[str, float]:
    """Parent-process campaign spans: mean self time per call."""
    layers = layer_times(spans)

    def per_call(name: str) -> float:
        return layers[name].self_s / layers[name].calls if name in layers else 0.0

    return {
        "campaign.resolve_ms": 1e3 * per_call("campaign.resolve"),
        "campaign.execute_s": per_call("campaign.execute"),
        "campaign.store_append_ms": 1e3 * per_call("campaign.store_append"),
        "campaign.cache_put_ms": 1e3 * per_call("campaign.cache_put"),
        "campaign.cache_get_ms": 1e3 * per_call("campaign.cache_get"),
    }


def _run_split(rows: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """The inside of a run, from what the program returns with each record
    (``RunRecord.to_dict()`` rows, as the status document also carries)."""
    return {
        "campaign.run_elapsed_p50_s":
            percentile([row["elapsed_s"] for row in rows], 50),
        "campaign.run_pic_p50_s": percentile(
            [row["summary"]["simulation_time_s"] for row in rows], 50),
        "campaign.run_train_p50_s": percentile(
            [row["summary"]["training_time_s"] for row in rows], 50),
    }


# --------------------------------------------------------------------------- #
# service-sse
# --------------------------------------------------------------------------- #
class StampingBus(RunEventBus):
    """The program's bus, noting when each event was published."""

    def __init__(self) -> None:
        super().__init__()
        self.published: Dict[Tuple[str, int], float] = {}

    def publish(self, topic, kind, data):
        now = time.perf_counter()
        event = super().publish(topic, kind, data)
        self.published[(topic, event.seq)] = now
        return event


@dataclass
class Subscriber:
    """One SSE client: every frame with the time it was parsed."""

    frames: List[Tuple[str, Optional[int], Dict[str, object], float]] = \
        field(default_factory=list)
    first_frame: threading.Event = field(default_factory=threading.Event)
    error: Optional[BaseException] = None

    def watch(self, client: ServiceClient, campaign_id: str) -> None:
        try:
            for event in client.watch(campaign_id):
                self.frames.append((event.event, event.id, event.data,
                                    time.perf_counter()))
                self.first_frame.set()
        except BaseException as error:  # noqa: BLE001 - reported as a failed check
            self.error = error
        finally:
            self.first_frame.set()

    def of_kind(self, *kinds: str):
        return [frame for frame in self.frames if frame[0] in kinds]


class ServiceWorkload(SweepWorkload):
    name = "service-sse"
    root_span = "service.submit_to_done"

    def setup(self) -> None:
        if not shared_pool(N_WORKERS).wait_ready():
            raise RuntimeError("worker pool did not come up")
        warm = replace(sweep_spec("bench-warm", self.seed, True), n_steps=2)
        self._campaign(warm, "warm", None)

    def _serve(self, tag: str):
        bus = StampingBus()
        server = create_server(port=0, bus=bus, store_dir=os.path.join(
            self.work_dir, f"service-{tag}"))
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.02}, daemon=True)
        thread.start()
        return server, thread, bus

    def _campaign(self, spec: CampaignSpec, tag: str,
                  tracer: Optional[Tracer], rep: int = 0) -> Dict[str, object]:
        """Submit ``spec`` to a fresh server and watch it to the end."""
        server, thread, bus = self._serve(tag)
        clock = time.perf_counter
        try:
            client = ServiceClient(server.url)
            client.wait_ready()
            early, late = Subscriber(), Subscriber()
            with self._traced(tracer, rep):
                posted = clock()
                document = client.submit(spec=spec.to_dict(), executor="workers",
                                         max_workers=N_WORKERS)
                submitted = clock()
                campaign_id = document["campaign_id"]
                watchers = [threading.Thread(target=subscriber.watch,
                                             args=(client, campaign_id))
                            for subscriber in (early, late)]
                watchers[0].start()
                early.first_frame.wait(120.0)
                watchers[1].start()
                for watcher in watchers:
                    watcher.join(120.0)
                done = clock()
            status_started = clock()
            status = client.status(campaign_id)
            status_s = clock() - status_started
            scrape_started = clock()
            with urllib.request.urlopen(server.url + "/v1/metrics",
                                        timeout=30.0) as response:
                exposition = response.read().decode("utf-8")
            scrape_s = clock() - scrape_started
        finally:
            server.shutdown_service()
            thread.join(5.0)
        return {"posted": posted, "submitted": submitted, "done": done,
                "early": early, "late": late, "status": status,
                "status_s": status_s, "scrape_s": scrape_s,
                "exposition": exposition, "bus": bus,
                "campaign_id": campaign_id,
                "stuck": any(watcher.is_alive() for watcher in watchers)}

    def repetition(self, rep: int, tracer: Optional[Tracer] = None) -> Rep:
        spec = sweep_spec(f"bench-service-{rep}", self.seed + rep, self.smoke)
        seen = self._campaign(spec, str(rep), tracer, rep)
        expected = sorted(run.run_id for run in spec.resolve())
        early, late = seen["early"], seen["late"]
        posted = seen["posted"]
        checks = [("no subscriber died or hung",
                   early.error is None and late.error is None
                   and not seen["stuck"])]
        for label, subscriber in (("early", early), ("late", late)):
            run_ids = sorted(str(frame[2].get("run_id")) for frame in
                             subscriber.of_kind("snapshot", "run"))
            done = subscriber.of_kind("done")
            checks += [
                (f"{label} subscriber saw every run id exactly once",
                 run_ids == expected),
                (f"{label} subscriber saw one done frame, state completed",
                 len(done) == 1 and done[0][2].get("state") == "completed"),
                (f"{label} subscriber lost no frame",
                 not subscriber.of_kind("dropped")),
            ]
        counted = _counter_total(seen["exposition"], "repro_campaign_runs_total",
                                 f'campaign="{spec.name}"')
        checks.append((f"/v1/metrics counted {len(expected)} runs",
                       counted == len(expected)))
        n_checks, failures = checked(checks)
        run_frames = early.of_kind("snapshot", "run")
        done_frames = early.of_kind("done")
        wall = (done_frames[0][3] if done_frames else seen["done"]) - posted
        completed = int(seen["status"].get("completed", 0))
        failures += [f"{len(expected) - completed} runs did not complete"] \
            if completed != len(expected) else []
        published = seen["bus"].published
        topic = seen["campaign_id"]
        delivery = [at - published[(topic, seq)]
                    for kind, seq, _, at in early.frames
                    if kind == "run" and (topic, seq) in published]
        n_frames = len(early.frames) + len(late.frames)
        return Rep(
            wall_s=wall, total_s=wall, steps=spec.n_steps * completed,
            runs=completed, lags_s=[frame[3] - posted for frame in run_frames],
            attempted=len(expected) + n_frames + n_checks, failures=failures,
            extra={"spec": spec, "delivery_s": delivery,
                   "submit_s": seen["submitted"] - posted,
                   "first_frame_s": (early.frames[0][3] - posted)
                   if early.frames else math.nan,
                   "status_s": seen["status_s"], "scrape_s": seen["scrape_s"],
                   "dropped": len(early.of_kind("dropped"))
                   + len(late.of_kind("dropped")),
                   "late_snapshot_frames": len(late.of_kind("snapshot")),
                   "records": seen["status"].get("records", [])})

    def per_layer(self, untraced: List[Rep], traced: List[Rep],
                  tracer: Tracer) -> Dict[str, float]:
        # the same sweep straight through run_campaign on the same warm pool
        spec = sweep_spec("bench-direct", self.seed + 1000, self.smoke)
        store = CampaignStore(os.path.join(self.work_dir, "direct.jsonl"))
        started = time.perf_counter()
        direct = run_campaign(spec, store,
                              WorkerPoolExecutor(max_workers=N_WORKERS))
        direct_rate = direct.executed / (time.perf_counter() - started)
        self.late_checks.append(("direct campaign completed every run",
                                 direct.completed == direct.total_runs))
        reps = untraced
        rate = statistics.median(rep.runs_per_sec for rep in reps)
        delivery = [dt for rep in reps for dt in rep.extra["delivery_s"]]

        def median_ms(key: str) -> float:
            return 1e3 * statistics.median(rep.extra[key] for rep in reps)

        rows = [row for rep in reps for row in rep.extra["records"]]
        return dict(
            _campaign_layers(tracer.spans), **_run_split(rows),
            **{
                "service.submit_ms": median_ms("submit_s"),
                "service.first_frame_s": statistics.median(
                    rep.extra["first_frame_s"] for rep in reps),
                "service.sse_delivery_p50_ms": 1e3 * percentile(delivery, 50),
                "service.sse_delivery_p95_ms": 1e3 * percentile(delivery, 95)
                    if has_tail(len(delivery), 95) else 0.0,
                "service.status_ms": median_ms("status_s"),
                "service.metrics_scrape_ms": median_ms("scrape_s"),
                "service.direct_runs_per_sec": direct_rate,
                "service.overhead_frac": 1.0 - rate / direct_rate,
                "service.frames_dropped":
                    sum(rep.extra["dropped"] for rep in reps + traced),
                "service.late_subscriber_snapshot_frames": statistics.median(
                    rep.extra["late_snapshot_frames"] for rep in reps),
                "trace.coverage_frac": coverage(tracer.spans),
            })


def _counter_total(exposition: str, metric: str, label: str) -> float:
    """Sum of one counter's series carrying ``label`` in a Prometheus page."""
    return sum(float(line.rsplit(" ", 1)[1])
               for line in exposition.splitlines()
               if line.startswith(metric + "{") and label in line)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
WORKLOADS = tuple(COUPLED_SHAPES) + (CampaignPoolWorkload.name,
                                     ServiceWorkload.name)


def make_workload(name: str, seed: int, smoke: bool, work_dir: str) -> Workload:
    if name in COUPLED_SHAPES:
        return CoupledWorkload(name, seed, smoke, work_dir)
    if name == CampaignPoolWorkload.name:
        return CampaignPoolWorkload(seed, smoke, work_dir)
    if name == ServiceWorkload.name:
        return ServiceWorkload(seed, smoke, work_dir)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")


def make_work_dir() -> str:
    out = os.path.join(BENCH_DIR, "out")
    os.makedirs(out, exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=out)


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
