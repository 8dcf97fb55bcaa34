"""Warm campaign workers: one ``ProcessPoolExecutor(max_workers=1)`` per
worker slot, leased run by run by every executor of the process (see
``docs/extending-executors.md`` for dispatch, heartbeats and crashes)."""

from __future__ import annotations

import atexit
import contextlib
import functools
import heapq
import itertools
import logging
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from repro.campaign.scheduler import (CampaignExecutor, _attempt_run,
                                      _failed_record, default_pool_workers)
from repro.campaign.store import RunRecord
from repro.telemetry import REGISTRY

logger = logging.getLogger(__name__)

_POOL_EVENTS = REGISTRY.counter(
    "repro_worker_pool_events_total",
    "Worker-pool lifecycle events (dispatches, results, requeues, "
    "cancellations, respawns), by event")

#: Start method of every pool's workers, read when a pool is built:
#: ``spawn`` inherits none of the threads the service runs executors from
#: (tests patch it to ``fork``).
DEFAULT_START_METHOD = "spawn"
#: Runs a slot holds at once: one executing, one in the call queue.
CAPACITY = 2
#: Crashes of its worker a run may cause before it is recorded as failed.
MAX_REQUEUES = 2
#: Seconds between a worker's heartbeats, read when its executor is built.
HEARTBEAT_INTERVAL_S = 1.0
#: Heartbeat silence (seconds) after which a worker holding runs is killed.
LIVENESS_TIMEOUT_S = 30.0
#: Seconds :meth:`WorkerPool.wait_ready` waits for every worker to start.
READY_TIMEOUT_S = 60.0
#: Lifetime counters, per lease in ``WorkerPoolExecutor.last_stats`` too;
#: ``dispatched_batches`` (= ``dispatched_runs``) and
#: ``straggler_redispatches`` (always 0) are names the benchmark reads.
_COUNTERS = ("dispatched_batches", "dispatched_runs", "results",
             "stale_results_dropped", "requeued_runs", "cancelled_runs",
             "straggler_redispatches", "respawns")


def _worker_init(pid, beat, interval: float) -> None:
    """Executor initializer: report the pid, heartbeat (and exit once the
    pool's process is gone), import the run path (a spawned worker has
    imported it already, unpickling this function)."""
    pid.value, parent = os.getpid(), os.getppid()

    def pulse() -> None:
        while os.getppid() == parent:
            beat.value = time.time()
            time.sleep(interval)
        os._exit(1)

    threading.Thread(target=pulse, name="pool-heartbeat", daemon=True).start()
    import repro.workflow  # noqa: F401 - the import a warm worker has paid


def _execute(payload, worker):
    """One run inside a worker: its record and the wall time it started."""
    started = time.time()
    return _attempt_run(payload, worker), started


class _Slot:
    """One worker: its executor, its process (``process``, known once the
    executor starts it; ``pid``, written by its initializer), heartbeat and
    the runs it holds, as ``(future, executor, lease, ticket, sent)`` in
    submission order — so the oldest entry of an executor is the run its
    worker is executing."""

    def __init__(self, index: int, context) -> None:
        self.index, self.executor, self.held = index, None, []
        self.process = 0
        self.pid = context.Value("i", 0, lock=False)
        self.beat = context.Value("d", 0.0, lock=False)


class WorkerPool:
    """``n_workers`` long-lived worker processes, started on first use;
    any number of threads may :meth:`run` at once."""

    def __init__(self, n_workers: int) -> None:
        if type(n_workers) is not int or n_workers < 1:
            raise ValueError(f"n_workers must be an integer >= 1, "
                             f"got {n_workers!r}")
        self.n_workers = n_workers
        self.start_method = DEFAULT_START_METHOD
        self._context = multiprocessing.get_context(self.start_method)
        self._lock = threading.RLock()   # a callback may run inside _turn()
        self._slots = [_Slot(index, self._context)
                       for index in range(n_workers)]
        self._leases: Dict[int, _Lease] = {}
        self._lease_ids = itertools.count()
        self._closed = False
        self.counters = dict.fromkeys(_COUNTERS, 0)

    def _count(self, name: str, lease: Optional[_Lease], amount=1) -> None:
        self.counters[name] += amount
        if lease is not None:
            lease.counters[name] += amount
        _POOL_EVENTS.inc(amount, event=name)

    def _renew(self, slot: _Slot, lease: Optional[_Lease]) -> None:
        """Give a slot a fresh executor and start its worker now."""
        if slot.executor is not None:
            slot.executor.shutdown(wait=False)
            self._count("respawns", lease)
        slot.pid.value, slot.beat.value = 0, time.time()
        slot.executor = ProcessPoolExecutor(
            max_workers=1, mp_context=self._context, initializer=_worker_init,
            initargs=(slot.pid, slot.beat, HEARTBEAT_INTERVAL_S))
        slot.executor.submit(int)       # spawns the worker ahead of any run
        # the executor starts its one process inside that submit: knowing
        # it here lets the liveness check kill a worker that never reaches
        # its initializer
        (slot.process,) = slot.executor._processes

    def _turn(self) -> None:
        """Start missing workers, kill those that hold runs and went
        silent, and hand queued runs out: each to the least-loaded slot,
        from the lease with the fewest runs in flight."""
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        for slot in self._slots:
            if slot.executor is None:
                self._renew(slot, None)
            elif slot.held \
                    and time.time() - slot.beat.value > LIVENESS_TIMEOUT_S:
                logger.warning("worker pool: worker %d (pid %s) went silent "
                               "holding %d run(s); killing it", slot.index,
                               slot.process, len(slot.held))
                with contextlib.suppress(ProcessLookupError):
                    os.kill(slot.process, signal.SIGKILL)
                self._renew(slot, slot.held[0][2])
        # callbacks go on after the pass, so a run that finished during its
        # own submit cannot free its slot (and take the next run) mid-pass
        sent = []
        try:
            while True:
                slot = min(self._slots, key=lambda slot: len(slot.held))
                ready = [lease for lease in self._leases.values()
                         if lease.queue]
                if len(slot.held) >= CAPACITY or not ready:
                    break
                lease = min(ready, key=lambda lease: lease.in_flight)
                lease.send(slot, heapq.heappop(lease.queue))
                sent.append((slot, slot.held[-1][0]))
        finally:
            for slot, future in sent:
                future.add_done_callback(functools.partial(self._settle, slot))

    def wait_ready(self) -> bool:
        """Start the pool; ``True`` once every worker has imported repro,
        ``False`` after :data:`READY_TIMEOUT_S`."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        with self._lock:
            self._turn()
        while None in self.worker_pids() and time.monotonic() < deadline:
            time.sleep(0.01)
        return None not in self.worker_pids()

    def worker_pids(self) -> List[Optional[int]]:
        """The workers' process ids, by slot (``None`` until one is up)."""
        return [slot.pid.value or None for slot in self._slots]

    def stats(self) -> Dict[str, object]:
        """A JSON-able snapshot of the pool's lifetime counters."""
        return dict(self.counters, n_workers=self.n_workers,
                    start_method=self.start_method)

    def shutdown(self) -> None:
        """Stop every worker once the runs it holds have finished."""
        with self._lock:
            self._closed = True
        for slot in self._slots:
            if slot.executor is not None:
                slot.executor.shutdown()

    def _settle(self, slot: _Slot, future) -> None:
        """Done-callback: hand a future's outcome to its lease and wake it."""
        with self._lock:
            entry = next((held for held in slot.held if held[0] is future),
                         None)
            if entry is None:
                return      # settled together with its executor's crash
            _, executor, lease, ticket, sent = entry
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                # the worker died: only the oldest run it held was executing
                lost = [held for held in slot.held if held[1] is executor]
                slot.held = [held for held in slot.held if held not in lost]
                for rank, (_, _, owner, orphan, _) in enumerate(lost):
                    if owner.id in self._leases:
                        owner.orphaned(orphan, executing=rank == 0)
                return
            slot.held.remove(entry)
            if error is None:
                record, started = future.result()
                record._placement = {
                    "worker": slot.index,
                    "queued_ms": round(1e3 * max(0.0, started - sent), 3)}
                self._count("results", lease)
            else:   # the call could not reach the worker
                record = _failed_record(
                    lease.payloads[ticket],
                    f"DispatchError: {type(error).__name__}: {error}")
            if lease.id in self._leases:
                lease.deliver(ticket, record)
            elif error is None:     # its lease was aborted (on_record raised)
                self._count("stale_results_dropped", None)

    def run(self, payloads, worker, counters, on_record=None,
            should_stop=None) -> List[Optional[RunRecord]]:
        """Execute the payloads as one lease: the
        :class:`repro.campaign.scheduler.CampaignExecutor` contract, with
        ``counters`` receiving the lease's share of the pool counters.
        ``RuntimeError`` if the pool is shut down."""
        lease = _Lease(self, list(payloads), worker)
        if not lease.payloads:
            return []
        with self._lock:
            self._turn()
            self._leases[lease.id] = lease
        tick = max(0.005, min(0.1, HEARTBEAT_INTERVAL_S / 2.0))
        records: Dict[int, RunRecord] = {}
        try:
            while len(records) + lease.cancelled < len(lease.payloads):
                stop = should_stop is not None and not lease.stopped \
                    and should_stop()
                with self._lock:
                    if stop:
                        lease.stop()
                    self._turn()
                lease.wake.wait(tick)
                lease.wake.clear()
                while lease.inbox:
                    position, record = lease.inbox.popleft()
                    records[position] = record
                    if on_record is not None:
                        on_record(record)
        finally:
            with self._lock:
                del self._leases[lease.id]
                for other in self._leases.values():  # its slots are free
                    other.wake.set()
        counters.update(lease.counters)
        return [records.get(position)
                for position in range(len(lease.payloads))]


class _Lease:
    """One ``run()``'s queue and accounting, touched under the pool lock.

    A ticket is a run's position in the payload list; the queue is a heap
    of tickets, so a requeued run goes back to its submission-order place.
    """

    def __init__(self, pool, payloads, worker) -> None:
        self.pool, self.payloads, self.worker_fn = pool, payloads, worker
        self.id = next(pool._lease_ids)
        self.queue = list(range(len(payloads)))       # sorted: a heap
        self.requeues: Dict[int, int] = {}
        self.settled = self.cancelled = 0
        self.stopped = False
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self.inbox = deque()    # (ticket, record) for the owning thread
        self.wake = threading.Event()

    @property
    def in_flight(self) -> int:
        return (len(self.payloads) - len(self.queue) - self.settled
                - self.cancelled)

    def deliver(self, ticket: int, record: RunRecord) -> None:
        self.settled += 1
        self.inbox.append((ticket, record))
        self.wake.set()

    def stop(self) -> None:
        """Drop every undispatched run; the dispatched ones finish."""
        self.stopped = True
        self.cancelled += len(self.queue)
        self.pool._count("cancelled_runs", self, len(self.queue))
        self.queue.clear()

    def orphaned(self, ticket: int, executing: bool) -> None:
        """Its worker died: requeue the run, or fail it if it was executing
        and has crashed more than :data:`MAX_REQUEUES` workers."""
        if executing:
            crashes = self.requeues[ticket] = self.requeues.get(ticket, 0) + 1
            if crashes > MAX_REQUEUES:
                self.deliver(ticket, _failed_record(
                    self.payloads[ticket],
                    f"WorkerCrashError: worker died executing this run "
                    f"{crashes} time(s); giving up", attempts=crashes))
                return
        if self.stopped:
            self.cancelled += 1
            self.pool._count("cancelled_runs", self)
        else:
            heapq.heappush(self.queue, ticket)
            self.pool._count("requeued_runs", self)
        self.wake.set()

    def send(self, slot: _Slot, ticket: int) -> None:
        """Submit one run to one slot, renewing a slot whose worker died."""
        call = (_execute, self.payloads[ticket], self.worker_fn)
        try:
            future = slot.executor.submit(*call)
        except BrokenProcessPool:
            self.pool._renew(slot, self)
            future = slot.executor.submit(*call)
        slot.held.append((future, slot.executor, self, ticket, time.time()))
        self.pool._count("dispatched_batches", self)
        self.pool._count("dispatched_runs", self)


_SHARED_POOLS: Dict[tuple, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(n_workers: Optional[int] = None) -> WorkerPool:
    """The process-wide warm pool of ``n_workers`` (default
    :func:`repro.campaign.scheduler.default_pool_workers`) workers that
    every :class:`WorkerPoolExecutor` without an explicit pool leases."""
    n_workers = n_workers or default_pool_workers()
    key = (n_workers, DEFAULT_START_METHOD)
    with _SHARED_LOCK:
        if key not in _SHARED_POOLS or _SHARED_POOLS[key]._closed:
            _SHARED_POOLS[key] = WorkerPool(n_workers)
        return _SHARED_POOLS[key]


def shutdown_shared_pools() -> None:
    """Shut down every shared pool (idempotent; registered via ``atexit``)."""
    with _SHARED_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_shared_pools)


class WorkerPoolExecutor(CampaignExecutor):
    """Campaign executor ``workers``: leases ``pool`` (its caller owns it)
    or else :func:`shared_pool`; after :meth:`execute`, ``last_stats``
    holds that call's share of the pool counters."""

    name = "workers"

    def __init__(self, max_workers: Optional[int] = None,
                 pool: Optional[WorkerPool] = None) -> None:
        if max_workers is not None \
                and (type(max_workers) is not int or max_workers < 1):
            raise ValueError(f"max_workers must be an integer >= 1, "
                             f"got {max_workers!r}")
        self.max_workers = max_workers
        self._pool = pool

    def pool(self) -> WorkerPool:
        """The pool this executor leases (shared unless one was injected)."""
        return self._pool or shared_pool(self.max_workers)

    def execute(self, payloads, worker, on_record=None, should_stop=None):
        """Execute the payloads on the warm pool (see the base contract)."""
        pool, counters = self.pool(), {}
        records = pool.run(payloads, worker, counters, on_record=on_record,
                           should_stop=should_stop)
        self.last_stats = dict(counters, n_workers=pool.n_workers) \
            if records else {}
        return records
