"""Campaign execution: pluggable executors over resolved workflow runs.

The scheduler owns the mechanics the spec deliberately leaves out: *how*
the resolved runs get executed.  Executors share one contract —
``execute(payloads, worker, on_record, should_stop)`` returns one
:class:`repro.campaign.store.RunRecord` per payload, with per-run retry,
a cooperative wall-clock timeout and every exception captured into the
record instead of raised, and ``None`` in place of a run that a tripped
``should_stop`` kept from starting — so a new backend (remote workers,
a batch system) only has to implement this interface.

* :class:`SerialExecutor` — one run after another, in process,
* :class:`repro.campaign.workers.WorkerPoolExecutor` — warm worker
  processes shared across launches: real CPU parallelism (the worker and
  payloads are picklable by construction).

The timeout and the stop are *cooperative*: an in-flight run is never
killed (neither threads nor in-process work can be interrupted safely); a
stop only keeps further runs from starting.  The timeout budgets the
whole run including retries: a failing attempt is only retried while wall
time remains, and a successful attempt is always recorded completed — over
budget it keeps its result, annotated with a ``TimeoutWarning`` (discarding
finished work would re-execute it on every resume, forever).

:func:`run_campaign` ties spec, store, executor and (optionally) a
:class:`repro.campaign.cache.ResultCache` together: resolve the spec, skip
run ids the store already completed, serve cached runs without executing
them, execute the rest, append each record as it finishes.  Because the
cache lookup happens here — before executor dispatch — *every* executor
skips cached runs without knowing the cache exists.
"""

from __future__ import annotations

import logging
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Sequence, Type

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (CampaignStore, RunRecord, STATUS_COMPLETED,
                                  STATUS_FAILED)
from repro.telemetry import (REGISTRY, Span, SpanRecorder, is_enabled,
                             new_id, recording, span, trace_path_for,
                             TraceWriter)

logger = logging.getLogger(__name__)

_RUNS_TOTAL = REGISTRY.counter(
    "repro_campaign_runs_total",
    "Run records produced, by campaign, status and cache origin")
_RUN_SECONDS = REGISTRY.histogram(
    "repro_campaign_run_seconds",
    "Per-run wall time (worker-executed runs), by campaign")
_RUNS_PER_SEC = REGISTRY.gauge(
    "repro_campaign_runs_per_sec",
    "Executed-run throughput of the current or latest launch, by campaign")

#: Executes one resolved run payload and returns a JSON-able summary dict.
RunWorker = Callable[[Dict[str, object]], Dict[str, object]]
#: Observes each record as it is produced (progress reporting, store append).
RecordCallback = Callable[[RunRecord], None]
#: Cooperative stop: true once no further run should be started.
StopCheck = Callable[[], bool]


def execute_run(payload: Dict[str, object]) -> Dict[str, object]:
    """Default worker: one coupled workflow run from a resolved payload.

    Module-level (hence picklable) so the worker pool can ship it to its
    processes by reference.  Returns the uniform ``RunResult.summary()``.
    """
    from repro.core.config import WorkflowConfig
    from repro.workflow import WorkflowBuilder

    config = WorkflowConfig.from_dict(payload["config"])
    session = (WorkflowBuilder().config(config)
               .driver(payload["driver"]).build())
    result = session.run(int(payload["n_steps"]))
    result.raise_if_failed()
    return result.summary()


class NonFiniteLossError(ArithmeticError):
    """The run's training diverged: its ``final_total_loss`` is NaN or inf."""


def _attempt_run(payload: Dict[str, object], worker: RunWorker,
                 retries: int, timeout: Optional[float]) -> RunRecord:
    """Run one payload with retry + cooperative timeout, capturing failures.

    The universal per-run wrapper: the serial executor calls it in
    process, the warm worker pool calls it inside its children.  That
    makes it the single place where the *execute* span of a trace
    opens — when the payload carries a ``trace`` propagation
    context (attached by :func:`run_campaign`), the attempt runs inside an
    ``execute`` span joined to the dispatching parent, and the finished
    spans travel back on the record as a ``_spans`` instance attribute
    (surviving pickling, invisible to ``asdict``/the store).
    """
    trace_ctx = payload.get("trace")
    if trace_ctx is None or not is_enabled():
        return _attempt_run_impl(payload, worker, retries, timeout)
    recorder = SpanRecorder()
    with recording(recorder):
        with span("execute", {"run_id": payload["run_id"], "pid": os.getpid()},
                  trace_ctx) as execute_span:
            record = _attempt_run_impl(payload, worker, retries, timeout)
            if execute_span is not None:
                execute_span.attrs["attempts"] = record.attempts
                if record.status != STATUS_COMPLETED:
                    execute_span.status = "error"
    record._spans = [finished.to_dict() for finished in recorder.spans]
    return record


def _attempt_run_impl(payload: Dict[str, object], worker: RunWorker,
                      retries: int, timeout: Optional[float]) -> RunRecord:
    """The untraced body of :func:`_attempt_run`.

    ``timeout`` budgets the *whole run* including retries: a failing attempt
    is only retried while wall time is left.  A successful attempt is always
    recorded completed; over budget its record carries a ``TimeoutWarning``
    but the result is kept.  A summary whose ``final_total_loss`` is not
    finite is a failed attempt like any raising one — a diverged run must
    not settle as completed, or the result cache would replay it forever.
    """
    attempts = 0
    error: Optional[str] = None
    summary: Dict[str, object] = {}
    status = STATUS_FAILED
    started = time.perf_counter()

    def budget_spent() -> bool:
        return (timeout is not None
                and time.perf_counter() - started > timeout)

    while attempts <= retries:
        attempts += 1
        try:
            summary = worker(payload)
            loss = summary.get("final_total_loss")
            if isinstance(loss, float) and not math.isfinite(loss):
                raise NonFiniteLossError(f"final_total_loss is {loss}")
        except BaseException as exc:  # noqa: BLE001 - captured in the record
            error = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            if budget_spent():
                break
            continue
        status = STATUS_COMPLETED
        total = time.perf_counter() - started
        if timeout is not None and total > timeout:
            # the work is done — discarding it (and re-running forever on
            # resume) helps nobody; keep the result, annotate the overrun
            error = (f"TimeoutWarning: run exceeded the {timeout:.1f} s "
                     f"budget ({total:.1f} s across {attempts} attempt(s)); "
                     f"result kept")
        else:
            error = None
        break
    return RunRecord(run_id=payload["run_id"], index=payload["index"],
                     params=dict(payload["params"]), driver=payload["driver"],
                     n_steps=int(payload["n_steps"]), status=status,
                     attempts=attempts,
                     elapsed_s=time.perf_counter() - started,
                     error=error, summary=summary)


def _failed_record(payload: Dict[str, object], error: str,
                   attempts: int = 1) -> RunRecord:
    """The failed record of a run the execution infrastructure lost."""
    return RunRecord(run_id=payload["run_id"], index=payload["index"],
                     params=dict(payload["params"]), driver=payload["driver"],
                     n_steps=int(payload["n_steps"]), status=STATUS_FAILED,
                     attempts=attempts, error=error)


#: Upper bound of the machine-derived default pool size: campaign runs are
#: memory-hungry (each worker holds a full coupled simulation), so "one
#: worker per hardware thread" stops paying off well before big core counts.
DEFAULT_MAX_POOL_WORKERS = 8


def default_pool_workers() -> int:
    """The machine-derived default worker count of the worker pool.

    ``os.cpu_count()`` clamped to ``[2, DEFAULT_MAX_POOL_WORKERS]``: at
    least two workers so concurrency semantics are always exercised (and a
    single-core box still overlaps the GIL-released numpy sections), at
    most :data:`DEFAULT_MAX_POOL_WORKERS` so a large host does not fork
    dozens of simulation processes by default.  Callers wanting the
    machine's full width pass ``max_workers`` explicitly.
    """
    return max(2, min(os.cpu_count() or 1, DEFAULT_MAX_POOL_WORKERS))


class CampaignExecutor:
    """Strategy interface: execute resolved run payloads into records."""

    name: str = "abstract"

    def __init__(self, max_workers: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 0) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.max_workers = max_workers
        self.timeout = timeout
        self.retries = int(retries)

    def execute(self, payloads: Sequence[Dict[str, object]], worker: RunWorker,
                on_record: Optional[RecordCallback] = None,
                should_stop: Optional[StopCheck] = None
                ) -> List[Optional[RunRecord]]:
        """Execute every payload, returning records in submission order.

        Args:
            payloads: resolved run payloads (``RunSpec.payload()`` dicts).
            worker: callable executing one payload into a summary dict.
            on_record: observer invoked once per finished record (in
                completion order, which may differ from submission order).
            should_stop: cooperative stop, consulted before a run is
                started; once it returns true no further run starts and
                runs already started finish normally.

        Returns:
            One entry per payload, in submission order: the run's
            :class:`repro.campaign.store.RunRecord` (worker exceptions are
            captured into failed records, never raised), or ``None`` for a
            payload a stop kept from starting.
        """
        raise NotImplementedError


class SerialExecutor(CampaignExecutor):
    """One run after another in the calling process (deterministic order)."""

    name = "serial"

    def execute(self, payloads, worker, on_record=None, should_stop=None):
        """Run the payloads sequentially (see the base-class contract)."""
        payloads = list(payloads)
        records: List[Optional[RunRecord]] = [None] * len(payloads)
        for position, payload in enumerate(payloads):
            if should_stop is not None and should_stop():
                break
            record = _attempt_run(payload, worker, self.retries, self.timeout)
            records[position] = record
            if on_record is not None:
                on_record(record)
        return records


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_EXECUTORS: Dict[str, Type[CampaignExecutor]] = {
    SerialExecutor.name: SerialExecutor,
}


def register_executor(name: str, executor_cls: Type[CampaignExecutor]) -> None:
    """Register a campaign executor (the hook for remote backends).

    Args:
        name: the registry key (what ``--executor`` and :func:`get_executor`
            accept).
        executor_cls: a :class:`CampaignExecutor` subclass.

    Raises:
        ValueError: if ``name`` is taken.
    """
    if name in _EXECUTORS:
        raise ValueError(f"executor {name!r} is already registered")
    _EXECUTORS[name] = executor_cls


def get_executor(name: str, **kwargs) -> CampaignExecutor:
    """Instantiate a registered executor by name.

    Args:
        name: one of the registered executors (``serial``, ``workers``
            or a user-registered backend).
        **kwargs: forwarded to the executor's constructor.

    Returns:
        A fresh executor instance.

    Raises:
        ValueError: on an unknown name or constructor-rejected options.
    """
    try:
        executor_cls = _EXECUTORS[name]
    except KeyError:
        raise ValueError(f"unknown executor {name!r}; valid executors: "
                         f"{', '.join(sorted(_EXECUTORS))}") from None
    return executor_cls(**kwargs)


def executor_for(options: Dict[str, object]) -> CampaignExecutor:
    """Build the executor a launch under ``options`` runs on.

    The one resolution rule behind CLI ``campaign run`` and the service's
    submit body: the ``executor`` option names it (``serial`` when unset),
    and ``max_workers`` / ``timeout`` / ``retries`` are forwarded when set.

    Args:
        options: ``executor``, ``max_workers``, ``timeout``, ``retries``;
            ``None`` values and other keys are ignored.

    Raises:
        ValueError: on an unknown executor name or rejected options.
    """
    kwargs = {key: options[key] for key in ("max_workers", "timeout", "retries")
              if options.get(key) is not None}
    return get_executor(str(options.get("executor") or "serial"), **kwargs)


# --------------------------------------------------------------------------- #
# the engine: spec + store + executor
# --------------------------------------------------------------------------- #
@dataclass
class CampaignOutcome:
    """What one campaign launch did (not necessarily the whole campaign)."""

    campaign: str
    total_runs: int                 #: resolved size of the campaign
    skipped: int                    #: already complete in the store
    executed: int                   #: runs executed by a worker this launch
    completed: int                  #: completed records (cache hits included)
    failed: int
    deferred: int = 0               #: pending runs not started (``max_runs``, stop)
    cache_hits: int = 0             #: runs served from the result cache
    records: List[RunRecord] = field(default_factory=list)

    @property
    def done(self) -> bool:
        """Whether the whole campaign is now complete."""
        return self.skipped + self.completed == self.total_runs

    def summary(self) -> Dict[str, object]:
        """The outcome as a flat JSON-able dict (the CLI ``--json`` shape)."""
        return {"campaign": self.campaign, "total_runs": self.total_runs,
                "skipped": self.skipped, "cache_hits": self.cache_hits,
                "executed": self.executed, "completed": self.completed,
                "failed": self.failed, "deferred": self.deferred,
                "done": self.done}


class _LaunchTrace:
    """Parent-side span bookkeeping of one :func:`run_campaign` launch.

    Owns the launch's root ``campaign`` span and the
    :class:`repro.telemetry.export.TraceWriter` appending next to the
    store.  Each pending payload gets a ``dispatch`` child whose context
    rides the payload into the executor; when the record settles back,
    :meth:`finish_run` emits the ``settle`` span, replays the worker-side
    ``execute`` span and the timer sections below it, and closes the
    dispatch — yielding one resolve → dispatch → execute → settle tree per
    run, correlated by the launch's trace id.
    """

    def __init__(self, spec: CampaignSpec, store: CampaignStore,
                 executor: CampaignExecutor) -> None:
        self.writer = TraceWriter(trace_path_for(store.path))
        self.root = Span(name="campaign", trace_id=new_id(),
                         attrs={"campaign": spec.name,
                                "executor": getattr(executor, "name",
                                                    type(executor).__name__),
                                "pid": os.getpid()})
        self._lock = threading.Lock()
        # run_id -> open dispatch spans; a deque because a payload list may
        # legitimately contain duplicate run ids (each keeps its own span)
        self._open: Dict[str, Deque[Span]] = {}

    def resolve_done(self, n_runs: int, n_pending: int,
                     started_s: float) -> None:
        """Emit the ``resolve`` child covering spec resolution + store scan."""
        self.writer.emit(Span(name="resolve", trace_id=self.root.trace_id,
                              parent_id=self.root.span_id, start_s=started_s,
                              end_s=time.time(),
                              attrs={"n_runs": n_runs,
                                     "n_pending": n_pending}))

    def attach(self, payload: Dict[str, object]) -> None:
        """Open a ``dispatch`` span for a payload and embed its context."""
        dispatch = Span(name="dispatch", trace_id=self.root.trace_id,
                        parent_id=self.root.span_id,
                        attrs={"run_id": payload["run_id"]})
        with self._lock:
            self._open.setdefault(str(payload["run_id"]),
                                  deque()).append(dispatch)
        payload["trace"] = {"trace_id": dispatch.trace_id,
                            "span_id": dispatch.span_id}

    def finish_run(self, record: RunRecord,
                   child_spans: Optional[List[dict]],
                   placement: Optional[Dict[str, object]],
                   settle_start: float) -> None:
        """Settle one record's tree (called under the launch record lock).

        Cache hits never had a dispatch span; their ``settle`` parents
        directly at the root.  ``placement`` is what the worker pool
        reports about the run's dispatch (``worker`` slot, ``queued_ms``
        between send and the worker starting it); other executors have
        none.
        """
        with self._lock:
            waiting = self._open.get(record.run_id)
            dispatch = waiting.popleft() if waiting else None
        parent = dispatch if dispatch is not None else self.root
        self.writer.emit(Span(name="settle", trace_id=self.root.trace_id,
                              parent_id=parent.span_id, start_s=settle_start,
                              end_s=time.time(),
                              attrs={"run_id": record.run_id,
                                     "status": record.status,
                                     "cached": record.cached}))
        for row in child_spans or ():
            self.writer.emit(row)
        if dispatch is not None:
            dispatch.attrs.update(placement or {}, status=record.status)
            if record.status != STATUS_COMPLETED:
                dispatch.status = "error"
            self.writer.emit(dispatch.finish())

    def finish(self, executor: CampaignExecutor,
               outcome: "CampaignOutcome") -> None:
        """Close the root span with the launch totals and executor stats."""
        stats = getattr(executor, "last_stats", None)
        if stats:
            self.root.attrs["executor_stats"] = dict(stats)
        self.root.attrs.update(
            {"executed": outcome.executed, "completed": outcome.completed,
             "failed": outcome.failed, "cache_hits": outcome.cache_hits,
             "skipped": outcome.skipped, "deferred": outcome.deferred})
        self.writer.emit(self.root.finish())
        self.writer.close()

    def abort(self) -> None:
        """Close the root as errored (launch died mid-execution)."""
        self.root.attrs["aborted"] = True
        self.root.status = "error"
        self.writer.emit(self.root.finish())
        self.writer.close()


def run_campaign(spec: CampaignSpec, store: CampaignStore,
                 executor: Optional[CampaignExecutor] = None,
                 worker: RunWorker = execute_run,
                 max_runs: Optional[int] = None,
                 on_record: Optional[RecordCallback] = None,
                 runs=None, completed_ids=None,
                 cache=None,
                 should_stop: Optional[StopCheck] = None) -> CampaignOutcome:
    """Execute (or resume) a campaign: run whatever the store has not completed.

    Every finished run is appended to the store immediately, so a campaign
    interrupted mid-launch resumes from the last completed run.  Failed runs
    are *not* skipped on re-launch — they get a fresh chance.  ``max_runs``
    bounds how many pending runs this launch attempts (useful for smoke
    tests and for deliberately staged campaigns).  ``runs`` /
    ``completed_ids`` accept the spec's already-resolved run list and the
    store's completed-id set so callers that computed them for reporting
    don't pay for resolution or a store re-read twice.

    Args:
        spec: the campaign to execute.
        store: this campaign's append-only record log.
        executor: execution backend (default: a fresh serial executor).
        worker: callable executing one resolved payload (default: the real
            coupled workflow run).
        max_runs: at most this many pending runs this launch (cache hits
            count against the bound — they consume pending slots).
        on_record: observer invoked once per produced record.  Dispatch is
            serialised with the store append under one lock (concurrent
            executors produce records from several threads), and a raising
            observer is logged and detached — a broken progress reporter or
            event subscriber must not kill the executor drain loop mid-
            campaign.  Store/cache write failures still abort the launch.
        runs: pre-resolved ``spec.resolve()`` list (skips re-resolution).
        completed_ids: pre-read ``store.completed_run_ids()`` set.
        cache: optional :class:`repro.campaign.cache.ResultCache`; pending
            runs found there are recorded (``cached=True``) without being
            executed, and newly completed runs are added to it.
        should_stop: cooperative stop handed to the executor (forwarded
            only when given, so an executor written against the
            three-argument ``execute`` keeps working); runs it kept from
            starting are counted in ``deferred`` and stay pending for the
            next launch.

    Returns:
        The launch's :class:`CampaignOutcome`; ``executed`` counts only
        worker-executed runs, cache hits are reported separately, and
        ``records`` holds the runs that produced a record.

    Raises:
        ValueError: on a negative ``max_runs``.
        OSError: if the store (or cache) becomes unwritable mid-launch.
    """
    executor = executor or SerialExecutor()
    if max_runs is not None and max_runs < 0:
        raise ValueError("max_runs must be >= 0")
    trace = _LaunchTrace(spec, store, executor) if is_enabled() else None
    resolve_started = time.time()
    launch_started = time.perf_counter()
    runs = spec.resolve() if runs is None else runs
    done_ids = store.completed_run_ids() if completed_ids is None \
        else completed_ids
    pending = [run for run in runs if run.run_id not in done_ids]
    skipped = len(runs) - len(pending)
    deferred = 0
    if max_runs is not None:
        deferred = max(0, len(pending) - max_runs)
        pending = pending[:max_runs]
    if trace is not None:
        trace.resolve_done(len(runs), len(pending), resolve_started)

    record_lock = threading.Lock()
    observer = {"callback": on_record}
    progress = {"executed": 0}

    def record_and_store(record: RunRecord) -> None:
        # worker-side spans ride the record as an undeclared attribute;
        # strip them before the record reaches the store or any observer
        child_spans = record.__dict__.pop("_spans", None)
        placement = record.__dict__.pop("_placement", None)
        # one lock around append + cache + dispatch: a registered executor
        # may call this from its own threads, and observers (progress
        # printers, event buses) must see records one at a time, in the
        # order they were persisted
        with record_lock:
            settle_started = time.time()
            store.append(record)
            if cache is not None:
                cache.put(record)   # refuses failed + already-cached records
            if trace is not None:
                trace.finish_run(record, child_spans, placement,
                                 settle_started)
            _RUNS_TOTAL.inc(1, campaign=spec.name, status=record.status,
                            cached=str(record.cached).lower())
            if not record.cached:
                _RUN_SECONDS.observe(record.elapsed_s, campaign=spec.name)
                progress["executed"] += 1
                launch_elapsed = time.perf_counter() - launch_started
                if launch_elapsed > 0:
                    _RUNS_PER_SEC.set(progress["executed"] / launch_elapsed,
                                      campaign=spec.name)
            callback = observer["callback"]
            if callback is None:
                return
            try:
                callback(record)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException:  # noqa: BLE001 - observer bug, not ours
                # a broken observer must not kill the drain loop (and with
                # it every in-flight run); detach it and keep executing
                observer["callback"] = None
                logger.exception(
                    "campaign %r: on_record observer raised on run %s; "
                    "detaching it for the rest of this launch",
                    spec.name, record.run_id)

    # cache pass first: whatever is already computed anywhere is recorded
    # into this campaign's store without dispatching it to the executor
    by_position: Dict[int, RunRecord] = {}
    to_execute = list(enumerate(pending))
    if cache is not None:
        to_execute = []
        for position, run in enumerate(pending):
            hit = cache.get(run.run_id)
            if hit is None:
                to_execute.append((position, run))
                continue
            # the entry may come from a different campaign over the same
            # resolved run: re-key its position/params to *this* spec
            record = replace(hit, index=run.index, params=dict(run.params))
            by_position[position] = record
            record_and_store(record)

    payloads = [run.payload() for _, run in to_execute]
    if trace is not None:
        for payload in payloads:
            trace.attach(payload)
    stop = {} if should_stop is None else {"should_stop": should_stop}
    try:
        executed = executor.execute(payloads, worker,
                                    on_record=record_and_store, **stop)
    except BaseException:
        if trace is not None:
            trace.abort()
        raise
    for (position, _), record in zip(to_execute, executed):
        if record is not None:
            by_position[position] = record
    records = [by_position[position] for position in range(len(pending))
               if position in by_position]
    not_started = len(pending) - len(records)
    completed = sum(1 for record in records if record.completed)
    outcome = CampaignOutcome(campaign=spec.name, total_runs=len(runs),
                              skipped=skipped,
                              executed=len(to_execute) - not_started,
                              completed=completed,
                              failed=len(records) - completed,
                              deferred=deferred + not_started,
                              cache_hits=len(pending) - len(to_execute),
                              records=records)
    if trace is not None:
        trace.finish(executor, outcome)
    return outcome
