"""Campaign jobs: background ``run_campaign`` launches keyed by campaign id.

One :class:`CampaignJob` wraps one campaign: its spec, its append-only
:class:`repro.campaign.store.CampaignStore` (the single source of truth —
the service adds *no* second persistence layer), a resolved run list and a
background thread driving one :func:`repro.campaign.scheduler.run_campaign`
call per launch.  Cancellation is cooperative: the job's cancel flag is the
launch's ``should_stop``, so runs already started are never killed (the
scheduler's own rule) and nothing else starts; what did not start stays
pending for the next submit.

The job's record list is also what a late SSE subscriber replays:
:meth:`CampaignJob.subscribe` takes it and a bus subscription under the
job's lock, the lock every record and the terminal event are published
under, so each record reaches a watcher exactly once.

The :class:`CampaignJobManager` owns the id→job map, the shared
:class:`repro.service.bus.RunEventBus` and the store directory.  A
campaign's id is derived from its spec (the cache directory is a submit
option, not part of the spec), so resubmitting the same sweep — after a
crash, a restart, or from a second client — attaches to the same store and resumes exactly like CLI
``campaign run`` does.  Specs are persisted next to their stores
(``<id>.spec.json``), so a restarted service lists and resumes every
campaign it ever accepted: a complete one as ``completed``, any other as
``interrupted``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.aggregate import aggregate, status_document
from repro.campaign.cache import ResultCache
from repro.campaign.scheduler import (execute_run, executor_for,
                                      run_campaign)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.service.bus import RunEventBus, Subscription
from repro.service.sse import EVENT_DONE, EVENT_RUN

logger = logging.getLogger(__name__)

#: Job lifecycle states.
STATE_RUNNING = "running"
STATE_CANCELLING = "cancelling"      #: cancel requested, finishing in-flight runs
STATE_CANCELLED = "cancelled"
STATE_COMPLETED = "completed"        #: every resolved run completed
STATE_FAILED = "failed"              #: finished, but some runs failed (or the launch died)
STATE_INTERRUPTED = "interrupted"    #: pending runs and no launch (resubmit resumes)

#: States in which the job's thread is finished (or never started).
TERMINAL_STATES = frozenset({STATE_CANCELLED, STATE_COMPLETED, STATE_FAILED,
                             STATE_INTERRUPTED})

#: Seconds a shutdown waits for each campaign job's thread.
JOIN_TIMEOUT_S = 5.0

#: Executor options a submission may carry.
EXECUTOR_OPTION_KEYS = ("executor", "max_workers", "cache_dir")


def campaign_id_of(spec: CampaignSpec) -> str:
    """Stable campaign identity: slugged name + hash of the spec.

    The spec holds only what shapes the resolved runs; the cache directory
    is a submit option, so resubmitting a sweep with a cache resumes the
    same campaign instead of starting a parallel one.
    """
    digest = hashlib.sha256(json.dumps(
        spec.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", spec.name).strip("-") or "campaign"
    return f"{slug}-{digest[:10]}"


class CampaignJob:
    """One campaign under service management: store + runs + runner thread."""

    def __init__(self, campaign_id: str, spec: CampaignSpec,
                 store: CampaignStore, bus: RunEventBus,
                 executor_options: Dict[str, object],
                 worker: Callable = execute_run) -> None:
        self.id = campaign_id
        self.spec = spec
        self.store = store
        self.bus = bus
        self.worker = worker
        self.executor_options = dict(executor_options)
        self.error: Optional[str] = None
        #: the latest launch's ``CampaignExecutor.last_stats``
        self.executor_stats: Dict[str, int] = {}
        self.runs = spec.resolve()
        self._lock = threading.RLock()
        self._cancel = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # in-memory mirror of the store (latest record per run id), seeded
        # from disk so an attached pre-existing campaign reports instantly
        self._records = {record.run_id: record
                         for record in store.records()
                         if record.run_id in {run.run_id for run in self.runs}}
        self.state = (STATE_COMPLETED if self._complete()
                      else STATE_INTERRUPTED)

    def _complete(self) -> bool:
        return len(self.runs) == sum(
            1 for record in self._records.values() if record.completed)

    def _event_payload(self, record) -> Dict[str, object]:
        payload = record.to_dict()
        payload["campaign_id"] = self.id
        return payload

    def subscribe(self) -> Tuple[List[Dict[str, object]], bool, Subscription]:
        """What a new watcher sees: ``(snapshot, ended, subscription)``.

        ``snapshot`` holds the recorded runs as event payloads and ``ended``
        whether the job was terminal; the bus subscription receives what is
        published after.  All three are taken under the lock every record
        and the terminal event are published under, so each record is in
        the snapshot or in the queue, never both and never neither.
        """
        with self._lock:
            snapshot = [self._event_payload(record)
                        for record in self._records.values()]
            return (snapshot, self.state in TERMINAL_STATES,
                    self.bus.subscribe(self.id))

    # -- lifecycle ---------------------------------------------------------- #
    def start(self) -> bool:
        """Start (or restart) the runner thread; False if already running.

        A completed campaign with nothing pending is not restarted — the
        submit is idempotent and the existing results stand.
        """
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return False
            if self.state == STATE_COMPLETED and self._complete():
                return False
            self._cancel.clear()
            self.state = STATE_RUNNING
            self.error = None
            self._thread = threading.Thread(
                target=self._run, name=f"campaign-{self.id}", daemon=True)
            self._thread.start()
            return True

    def request_cancel(self) -> str:
        """Ask the job to stop scheduling runs (in-flight runs finish).

        Returns:
            The resulting state: ``cancelling`` while the thread drains,
            or the unchanged terminal state if it was already finished.
        """
        with self._lock:
            self._cancel.set()
            if self.state == STATE_RUNNING:
                self.state = STATE_CANCELLING
            return self.state

    def join(self) -> None:
        """Wait up to :data:`JOIN_TIMEOUT_S` for the runner thread (no-op if
        it never started)."""
        thread = self._thread
        if thread is not None:
            thread.join(JOIN_TIMEOUT_S)

    # -- the runner thread -------------------------------------------------- #
    def _run(self) -> None:
        try:
            executor = executor_for(self.executor_options)
            cache_dir = self.executor_options.get("cache_dir")
            cache = ResultCache(str(cache_dir)) if cache_dir else None
            # the in-memory mirror already knows what is complete: hand it
            # over so run_campaign does not re-read the store
            done_ids = {run_id for run_id, record in self._records.items()
                        if record.completed}
            outcome = run_campaign(self.spec, self.store, executor,
                                   worker=self.worker,
                                   on_record=self._publish, runs=self.runs,
                                   completed_ids=done_ids, cache=cache,
                                   should_stop=self._cancel.is_set)
            with self._lock:
                self.executor_stats = dict(executor.last_stats)
            if outcome.deferred:
                self._finish(STATE_CANCELLED)
            else:
                self._finish(STATE_COMPLETED if outcome.done
                             else STATE_FAILED)
        except BaseException as exc:  # noqa: BLE001 - surfaced via job state
            logger.exception("campaign %s: launch died", self.id)
            self.error = f"{type(exc).__name__}: {exc}"
            self._finish(STATE_FAILED)

    def _publish(self, record) -> None:
        with self._lock:
            self._records[record.run_id] = record
            self.bus.publish(self.id, EVENT_RUN, self._event_payload(record))

    def _finish(self, state: str) -> None:
        with self._lock:
            self.state = state
            self.bus.publish(self.id, EVENT_DONE, self.status())

    # -- status ------------------------------------------------------------- #
    def records(self) -> List:
        """The latest in-memory record per run id (store-backed)."""
        with self._lock:
            return list(self._records.values())

    def status(self, include_records: bool = False) -> Dict[str, object]:
        """The service status document for this campaign.

        The counts come from :func:`repro.campaign.aggregate.status_document`
        — the exact serializer behind ``campaign status --json`` — plus the
        service-level fields (``campaign_id``, ``state``, ``error``).
        """
        with self._lock:
            state = self.state
            error = self.error
            records = list(self._records.values())
            executor_stats = dict(self.executor_stats)
        telemetry = {"bus": self.bus.topic_stats(self.id)}
        if executor_stats:
            telemetry["executor"] = executor_stats
        document = status_document(self.spec.name, len(self.runs), records,
                                   store=self.store.path,
                                   include_records=include_records,
                                   telemetry=telemetry)
        document.update(campaign_id=self.id, state=state, error=error)
        return document

    def report(self) -> Dict[str, object]:
        """The aggregate campaign report (``campaign report --json`` schema)."""
        return aggregate(self.records(), campaign=self.spec.name).to_dict()

    def is_terminal(self) -> bool:
        """Whether the job is in a terminal (not running/cancelling) state."""
        with self._lock:
            return self.state in TERMINAL_STATES


class CampaignJobManager:
    """The id→job map behind the HTTP API, backed by one store directory."""

    def __init__(self, store_dir: str, worker: Callable = execute_run,
                 bus: Optional[RunEventBus] = None) -> None:
        self.store_dir = str(store_dir)
        self.worker = worker
        self.bus = bus if bus is not None else RunEventBus()
        self._lock = threading.Lock()
        self._jobs: Dict[str, CampaignJob] = {}
        os.makedirs(self.store_dir, exist_ok=True)
        self._load_existing()

    # -- persistence of specs ----------------------------------------------- #
    def _spec_path(self, campaign_id: str) -> str:
        return os.path.join(self.store_dir, f"{campaign_id}.spec.json")

    def _store_path(self, campaign_id: str) -> str:
        return os.path.join(self.store_dir, f"{campaign_id}.campaign.jsonl")

    def _load_existing(self) -> None:
        """Attach every ``<id>.spec.json`` found in the store directory.

        This is the restart story: the specs + JSONL stores on disk *are*
        the service state; loading them re-creates every job (terminal or
        resumable) without re-executing anything.
        """
        for name in sorted(os.listdir(self.store_dir)):
            if not name.endswith(".spec.json"):
                continue
            campaign_id = name[:-len(".spec.json")]
            try:
                spec = CampaignSpec.from_file(self._spec_path(campaign_id))
                self._jobs[campaign_id] = CampaignJob(
                    campaign_id, spec, CampaignStore(self._store_path(campaign_id)),
                    self.bus, {}, worker=self.worker)
            except (ValueError, OSError) as error:
                logger.warning("skipping unloadable campaign %s: %s",
                               campaign_id, error)

    # -- API ---------------------------------------------------------------- #
    def submit(self, spec: CampaignSpec, options: Dict[str, object]
               ) -> Tuple[CampaignJob, bool, bool]:
        """Submit (or resume, or attach to) a campaign.

        Args:
            spec: the campaign to run.
            options: executor options (see ``EXECUTOR_OPTION_KEYS``),
                validated eagerly so a bad submission fails the HTTP
                request instead of the background thread.

        Returns:
            ``(job, created, started)`` — ``created`` is False when the
            campaign id already existed (resume/attach), ``started`` is
            False when nothing needed to run (already complete or already
            running).

        Raises:
            ValueError: on invalid executor options or an unresolvable spec.
        """
        options = dict(options)
        unknown = sorted(set(options) - set(EXECUTOR_OPTION_KEYS))
        if unknown:
            raise ValueError(f"unknown submit options {unknown}; valid "
                             f"options: {', '.join(EXECUTOR_OPTION_KEYS)}")
        executor_for(options)    # validate before accepting
        campaign_id = campaign_id_of(spec)
        with self._lock:
            job = self._jobs.get(campaign_id)
            created = job is None
            if created:
                store = CampaignStore(self._store_path(campaign_id))
                job = CampaignJob(campaign_id, spec, store, self.bus, options,
                                  worker=self.worker)
                spec.to_file(self._spec_path(campaign_id))
                self._jobs[campaign_id] = job
            else:
                job.executor_options = options
            # started before the lock is released, so no reader sees a new
            # job in the interrupted state it is made in
            started = job.start()
        return job, created, started

    def get(self, campaign_id: str) -> Optional[CampaignJob]:
        """The job for a campaign id, or ``None``."""
        with self._lock:
            return self._jobs.get(campaign_id)

    def jobs(self) -> List[CampaignJob]:
        """Every managed job, in submission/discovery order."""
        with self._lock:
            return list(self._jobs.values())

    def shutdown(self) -> None:
        """Cancel every running job and wait briefly for the threads."""
        for job in self.jobs():
            job.request_cancel()
        for job in self.jobs():
            job.join()
