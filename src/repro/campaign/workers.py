"""Persistent worker-pool campaign execution: warm workers, run-granular dispatch.

A pool built per ``execute()`` call re-pays process spawn, interpreter
start and the numpy/repro import on every campaign launch (the stock
``process`` executor this module replaced measured 1.24x slower on whole
launches for exactly that reason).  This module removes that tax:

* a :class:`WorkerPool` owns **long-lived worker processes** that import
  repro once and stay warm across ``execute()`` calls, campaigns and (via
  :func:`shared_pool`) across every executor instance in the process —
  the service's job manager and the CLI lease the same pool;
* dispatch is **run-granular and breadth-first**: one pipe message
  carries one run (about a kilobyte against runs of tens of
  milliseconds), the next run always goes to the least-loaded live
  worker, and a worker that finishes pulls the next run — so unequal
  runs balance themselves and no worker waits while another holds a
  prefetched run;
* each worker has a bounded **capacity** of runs it may hold (one
  executing, the rest prefetched in its pipe), so the next run's IPC
  overlaps the current run's compute without flooding a slow worker;
* one :meth:`WorkerPool.run` call is one **lease**, and any number of
  leases share the pool at once: whichever lease thread holds the pump
  reads every pipe and routes each result, by the lease id the message
  carries, to the owning lease's inbox; the owner settles it and fires
  ``on_record`` on its own thread.  Free worker slots go to the lease
  with the fewest runs in flight, so two campaigns interleave run by
  run;
* a lease's **cooperative stop** drops its undispatched queue; the runs
  the workers already hold (at most ``capacity`` each) finish and are
  recorded;
* workers send **heartbeats** from a background thread; a worker silent
  past the liveness deadline (or whose process died) is terminated,
  respawned warm, and the runs it held are **requeued** — safe because
  run records are idempotent (the store keeps the last record per run id
  and :class:`repro.campaign.cache.ResultCache` writes are atomic).
  Only the run that was *executing* is charged against ``max_requeues``;
  runs merely prefetched behind it go back to the queue uncharged.

The executor side, :class:`WorkerPoolExecutor`, registers as ``workers``
in the executor registry, so it is reachable from ``--executor workers``,
the service's submit body and :func:`repro.campaign.scheduler.get_executor`.

Everything here is stdlib: ``multiprocessing`` pipes and processes, no
new dependencies.  The default start method is ``spawn`` — workers pay
one clean interpreter + import start-up when the pool first spins up
(that is the cost the pool exists to amortise) and never inherit the
parent's threads or locks, which matters because the campaign service
runs executors from background threads.  Fork-based pools are available
via ``start_method="fork"`` where supported.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from multiprocessing import connection
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.scheduler import (CampaignExecutor, RecordCallback,
                                      RunWorker, StopCheck, _attempt_run,
                                      _failed_record, default_pool_workers,
                                      register_executor)
from repro.campaign.store import RunRecord
from repro.telemetry import REGISTRY
from repro.utils.logging import get_logger

logger = get_logger(__name__)

_POOL_EVENTS = REGISTRY.counter(
    "repro_worker_pool_events_total",
    "Worker-pool lifecycle events (dispatches, results, requeues, "
    "cancellations, respawns), by event")

#: Default start method of worker processes.  ``spawn`` gives workers a
#: clean interpreter (no inherited threads/locks — safe under the threaded
#: campaign service) at the cost of one import pass per worker, paid once
#: per pool lifetime.  Overridable per pool/executor (tests use ``fork``).
DEFAULT_START_METHOD = "spawn"

#: Default per-worker capacity: runs a worker may hold at once.  Two keeps
#: one run computing while the next waits in the pipe.
DEFAULT_CAPACITY = 2

#: Default crash-requeue bound: how often one run may be requeued after
#: killing its worker before it is recorded as failed (guards against a
#: run that reliably kills its worker taking the pool down forever).
DEFAULT_MAX_REQUEUES = 2

#: Default worker heartbeat interval (seconds).
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0

#: Default liveness deadline (seconds): a worker silent this long is
#: declared dead even if its process object still looks alive (wedged in
#: non-Python code).  Generous by default — workers heartbeat from a
#: dedicated thread, so ordinary long runs keep beating.
DEFAULT_LIVENESS_TIMEOUT_S = 30.0

#: The pool's event counters (lifetime on the pool, per lease in
#: ``WorkerPoolExecutor.last_stats``).  ``dispatched_batches`` counts pipe
#: messages, under the name the repo benchmark reads; with one run per
#: message it equals ``dispatched_runs``.  ``straggler_redispatches`` is
#: kept, always 0, for the same reader: a run in flight exists once.
_COUNTERS = ("dispatched_batches", "dispatched_runs", "results",
             "stale_results_dropped", "requeued_runs", "cancelled_runs",
             "straggler_redispatches", "respawns")


# --------------------------------------------------------------------------- #
# the worker process
# --------------------------------------------------------------------------- #
def _worker_main(conn, heartbeat_interval: float) -> None:
    """Worker process entry point: heartbeat thread + run loop.

    Receives ``("run", lease, ticket, payload, worker, retries, timeout)``
    messages, executes them in arrival order and answers each with
    ``("result", lease, ticket, record, started)`` — ``started`` being the
    wall-clock time the run left the pipe, from which the parent derives
    how long it sat queued.  All run-level failure capture lives in
    :func:`repro.campaign.scheduler._attempt_run` — a worker only dies on
    ``KeyboardInterrupt``/``SystemExit`` (which ``_attempt_run`` re-raises
    by contract) or on losing its pipe.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                with send_lock:
                    conn.send(("heartbeat", os.getpid()))
            except (OSError, ValueError, BrokenPipeError):
                return

    heartbeat = threading.Thread(target=beat, name="pool-heartbeat",
                                 daemon=True)
    heartbeat.start()
    try:
        with send_lock:
            conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, lease, ticket, payload, worker, retries, timeout = message
            started = time.time()
            record = _attempt_run(payload, worker, retries, timeout)
            with send_lock:
                conn.send(("result", lease, ticket, record, started))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """Parent-side bookkeeping of one worker process."""

    __slots__ = ("slot", "process", "conn", "last_seen", "ready", "dead",
                 "tickets")

    def __init__(self, slot: int, process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.last_seen = time.monotonic()
        self.ready = False
        self.dead = False
        #: ticket -> (lease id, wall-clock send time) of every run sent and
        #: not yet answered, oldest first.  The worker executes in arrival
        #: order, so the first entry is the run it is executing and the
        #: rest are prefetched.
        self.tickets: Dict[int, Tuple[int, float]] = {}


class WorkerPool:
    """A pool of long-lived worker processes shared across campaign launches.

    The pool spawns lazily on the first :meth:`run` (so building an
    executor for validation never forks), keeps its workers warm until
    :meth:`shutdown`, and recovers from worker death by requeueing the
    dead worker's in-flight runs and respawning the worker.

    Thread safety: any number of threads may call :meth:`run` at once;
    each call is a lease with its own queue, and the leases share the
    workers run by run.  Pool state is guarded by a lock held only for
    bookkeeping — never while waiting on the pipes or while an
    ``on_record`` observer runs — so :meth:`stats` and
    :meth:`worker_pids` answer at once during a drain.

    Args:
        n_workers: number of worker processes (``>= 1``).
        start_method: multiprocessing start method (default
            :data:`DEFAULT_START_METHOD`).
        heartbeat_interval: seconds between worker heartbeats.
        liveness_timeout: seconds of silence after which a worker is
            declared dead and respawned.

    Raises:
        ValueError: on a non-positive ``n_workers`` or an unknown start
            method.
    """

    def __init__(self, n_workers: int,
                 start_method: Optional[str] = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL_S,
                 liveness_timeout: float = DEFAULT_LIVENESS_TIMEOUT_S) -> None:
        if not isinstance(n_workers, int) or isinstance(n_workers, bool) \
                or n_workers < 1:
            raise ValueError(f"n_workers must be an integer >= 1, "
                             f"got {n_workers!r}")
        if heartbeat_interval <= 0 or liveness_timeout <= 0:
            raise ValueError("heartbeat_interval and liveness_timeout must "
                             "be positive")
        self.n_workers = n_workers
        self.start_method = start_method or DEFAULT_START_METHOD
        self.heartbeat_interval = float(heartbeat_interval)
        self.liveness_timeout = float(liveness_timeout)
        self._context = multiprocessing.get_context(self.start_method)
        #: guards every field below; held for bookkeeping only
        self._lock = threading.RLock()
        #: the pump role: its holder alone waits on and reads the pipes
        self._pump_lock = threading.Lock()
        self._workers: List[Optional[_Worker]] = [None] * n_workers
        self._leases: Dict[int, "_Lease"] = {}
        self._started = False
        self._closed = False
        self._ticket_ids = itertools.count()
        self._lease_ids = itertools.count()
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)

    def _count(self, name: str, amount: int = 1,
               lease: Optional["_Lease"] = None) -> None:
        """Bump a lifetime counter (and the lease's share of it), mirroring
        it into the metrics registry."""
        self.counters[name] += amount
        if lease is not None:
            lease.counters[name] += amount
        _POOL_EVENTS.inc(amount, event=name)

    # -- lifecycle ---------------------------------------------------------- #
    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main, args=(child_conn, self.heartbeat_interval),
            name=f"campaign-worker-{slot}", daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(slot, process, parent_conn)
        self._workers[slot] = worker
        return worker

    def start(self) -> None:
        """Spawn any missing workers (idempotent; called by :meth:`run`).

        Raises:
            RuntimeError: if the pool was already shut down.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            for slot in range(self.n_workers):
                if self._workers[slot] is None:
                    self._spawn(slot)
            self._started = True

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Start the pool and wait until every worker reported ready.

        Used to warm the pool outside a timed section (benchmarks) — a
        campaign run does not need it, runs queue in the pipes.

        Args:
            timeout: seconds to wait before giving up.

        Returns:
            ``True`` if every worker is ready, ``False`` on timeout.
        """
        deadline = time.monotonic() + timeout
        self.start()
        while time.monotonic() < deadline:
            self._turn(0.05)
            with self._lock:
                if all(worker is not None and worker.ready
                       for worker in self._workers):
                    return True
        return False

    def worker_pids(self) -> List[Optional[int]]:
        """The workers' process ids, by slot (``None`` for unspawned slots)."""
        with self._lock:
            return [None if worker is None else worker.process.pid
                    for worker in self._workers]

    def stats(self) -> Dict[str, object]:
        """A JSON-able snapshot of the pool's lifetime counters."""
        with self._lock:
            return dict(self.counters, n_workers=self.n_workers,
                        start_method=self.start_method,
                        pids=[pid for pid in self.worker_pids()
                              if pid is not None])

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker (politely, then forcefully) and close the pipes.

        Args:
            timeout: seconds to wait for a worker to exit after the stop
                message before terminating it.
        """
        with self._lock:
            self._closed = True
            workers = [worker for worker in self._workers
                       if worker is not None]
            self._workers = [None] * self.n_workers
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- message pump ------------------------------------------------------- #
    def _turn(self, block: float, lease: Optional["_Lease"] = None) -> None:
        """One turn of the pool on behalf of ``lease`` (or of a warm-up).

        The thread that gets the pump reaps dead workers, dispatches for
        *every* lease, waits up to ``block`` seconds on the pipes and
        routes what arrived.  A thread that does not get it fills any
        free slots and then waits on its own inbox — the pumping thread
        delivers into it.
        """
        if not self._pump_lock.acquire(blocking=False):
            with self._lock:
                self._dispatch()    # a new lease need not wait for the pump
            if lease is None:
                time.sleep(block)
            else:
                lease.wake.wait(block)
            return
        try:
            with self._lock:
                if self._closed:
                    raise RuntimeError("worker pool is shut down")
                self._reap_dead()
                self._dispatch()
                by_conn = {worker.conn: worker for worker in self._workers
                           if worker is not None and not worker.dead}
            if lease is not None and lease.inbox:
                block = 0.0     # this lease has records to settle first
            try:
                readable = connection.wait(list(by_conn), timeout=block)
            except OSError:
                readable = []
            with self._lock:
                for ready_conn in readable:
                    self._drain_conn(by_conn[ready_conn])
                if readable:
                    self._dispatch()    # refill the slots the results freed
        finally:
            self._pump_lock.release()

    def _drain_conn(self, worker: _Worker) -> None:
        """Handle every message waiting in one worker's pipe."""
        try:
            while worker.conn.poll():
                self._handle(worker, worker.conn.recv())
        except (EOFError, OSError):
            worker.dead = True

    def _handle(self, worker: _Worker, message) -> None:
        worker.last_seen = time.monotonic()
        kind = message[0]
        if kind == "ready":
            worker.ready = True
        elif kind == "heartbeat":
            pass
        elif kind == "result":
            _, lease_id, ticket, record, started = message
            _, sent = worker.tickets.pop(ticket, (lease_id, started))
            lease = self._leases.get(lease_id)
            self._count("results", lease=lease)
            if lease is None:
                # its lease was aborted (on_record raised) before it answered
                self._count("stale_results_dropped")
                return
            record._placement = {
                "worker": worker.slot,
                "queued_ms": round(1e3 * max(0.0, started - sent), 3)}
            lease.deliver(ticket, record)
        else:  # pragma: no cover - future-proofing against protocol drift
            logger.warning("worker pool: unknown message kind %r", kind)

    def _reap_dead(self) -> None:
        """Respawn dead/hung workers, requeueing the runs they held."""
        now = time.monotonic()
        for slot in range(self.n_workers):
            worker = self._workers[slot]
            if worker is None:
                if self._started:
                    self._spawn(slot)
                continue
            hung = now - worker.last_seen > self.liveness_timeout
            if not (worker.dead or hung or not worker.process.is_alive()):
                continue
            # results it managed to send before dying still count — and
            # must not be mistaken for the run that killed it
            self._drain_conn(worker)
            orphans = [(ticket, self._leases.get(lease_id))
                       for ticket, (lease_id, _) in worker.tickets.items()]
            logger.warning(
                "worker pool: worker %d (pid %s) %s with %d run(s) in "
                "flight; respawning", slot, worker.process.pid,
                "went silent" if hung and worker.process.is_alive()
                else "died", len(orphans))
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            self._spawn(slot)
            self._count("respawns", lease=orphans[0][1] if orphans else None)
            # newest first, so requeueing at the front restores the order
            for rank in reversed(range(len(orphans))):
                ticket, lease = orphans[rank]
                if lease is not None:
                    lease.orphaned(ticket, executing=rank == 0)

    # -- dispatch ----------------------------------------------------------- #
    def _dispatch(self) -> None:
        """Hand queued runs to workers: breadth-first, fair across leases.

        Each run goes to the least-loaded live worker (so every worker
        gets its first run before any gets a prefetched second) and comes
        from the lease with the fewest runs in flight (so concurrent
        leases share the pool run by run instead of queueing behind each
        other).
        """
        while True:
            live = [worker for worker in self._workers
                    if worker is not None and not worker.dead]
            if not live:
                return
            worker = min(live, key=lambda worker: len(worker.tickets))
            ready = [lease for lease in self._leases.values()
                     if lease.queue and len(worker.tickets) < lease.capacity]
            if not ready:
                break
            lease = min(ready, key=lambda lease: lease.in_flight)
            lease.send(worker, lease.queue.popleft())

    # -- the drain loop ----------------------------------------------------- #
    def run(self, payloads: Sequence[Dict[str, object]], worker: RunWorker,
            retries: int = 0, timeout: Optional[float] = None,
            on_record: Optional[RecordCallback] = None,
            should_stop: Optional[StopCheck] = None,
            capacity: int = DEFAULT_CAPACITY,
            max_requeues: int = DEFAULT_MAX_REQUEUES,
            counters: Optional[Dict[str, int]] = None
            ) -> List[Optional[RunRecord]]:
        """Execute the payloads on the warm pool; records in submission order.

        Implements the :class:`repro.campaign.scheduler.CampaignExecutor`
        contract (one entry per payload, worker exceptions captured by
        :func:`repro.campaign.scheduler._attempt_run` inside the worker
        process, ``on_record`` fired once per finished record and
        ``should_stop`` consulted, both on the calling thread) as one
        lease over the shared workers.

        Args:
            payloads: resolved run payloads (``RunSpec.payload()`` dicts).
            worker: picklable callable executing one payload.
            retries: per-run retries (applied inside the worker process).
            timeout: per-run cooperative wall-clock budget (seconds).
            on_record: observer invoked once per finished record.
            should_stop: cooperative stop; once true, the undispatched
                runs are dropped and the runs the workers already hold
                (at most ``capacity`` each) finish.
            capacity: runs a worker may hold at once (``>= 1``).
            max_requeues: how often a run may kill its worker and be
                requeued before it is recorded failed.
            counters: if given, receives this lease's share of the pool
                counters.

        Returns:
            One entry per payload, in submission order: its
            :class:`repro.campaign.store.RunRecord`, or ``None`` if a
            stop dropped it before dispatch.

        Raises:
            RuntimeError: if the pool was shut down.
            ValueError: on invalid ``capacity``/``max_requeues``.
        """
        payloads = list(payloads)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        if not payloads:
            return []
        lease = _Lease(self, payloads, worker, retries, timeout, capacity,
                       max_requeues)
        with self._lock:
            self.start()
            self._leases[lease.id] = lease
        tick = max(0.005, min(0.1, self.heartbeat_interval / 2.0))
        records: Dict[int, RunRecord] = {}
        try:
            while len(records) + lease.cancelled < len(payloads):
                if should_stop is not None and not lease.stopped \
                        and should_stop():
                    with self._lock:
                        lease.stop()
                self._turn(tick, lease)
                lease.wake.clear()
                while lease.inbox:
                    position, record = lease.inbox.popleft()
                    records[position] = record
                    if on_record is not None:
                        on_record(record)
        finally:
            with self._lock:
                del self._leases[lease.id]
                remaining = list(self._leases.values())
            # this thread may have held the pump: let another lease take it
            for other in remaining:
                other.wake.set()
        if counters is not None:
            counters.update(lease.counters)
        return [records.get(position) for position in range(len(payloads))]


class _Lease:
    """One ``run()``'s share of a :class:`WorkerPool`: queue + accounting.

    Tickets are pool-unique integers, one per submitted payload, so a
    duplicate ``run_id`` in the payload list still gets its own record.
    Every method runs under the pool lock; the owning thread only takes
    finished records out of ``inbox``.
    """

    def __init__(self, pool: WorkerPool, payloads, worker, retries, timeout,
                 capacity, max_requeues) -> None:
        self.pool = pool
        self.worker_fn = worker
        self.retries = retries
        self.timeout = timeout
        self.capacity = capacity
        self.max_requeues = max_requeues
        self.id = next(pool._lease_ids)
        self.position_of: Dict[int, int] = {}
        self.payload_of: Dict[int, Dict[str, object]] = {}
        self.queue: Deque[int] = deque()
        for position, payload in enumerate(payloads):
            ticket = next(pool._ticket_ids)
            self.position_of[ticket] = position
            self.payload_of[ticket] = payload
            self.queue.append(ticket)
        self.done: Set[int] = set()
        self.requeues: Dict[int, int] = {}
        self.stopped = False
        self.cancelled = 0
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        #: ``(position, record)`` pairs awaiting the owning thread
        self.inbox: Deque[Tuple[int, RunRecord]] = deque()
        self.wake = threading.Event()

    @property
    def in_flight(self) -> int:
        """Runs dispatched and not yet answered."""
        return (len(self.position_of) - len(self.queue) - len(self.done)
                - self.cancelled)

    def deliver(self, ticket: int, record: RunRecord) -> None:
        """Close a ticket and hand its record to the owning thread."""
        self.done.add(ticket)
        self.inbox.append((self.position_of[ticket], record))
        self.wake.set()

    def stop(self) -> None:
        """Drop every undispatched run; the dispatched ones finish."""
        self.stopped = True
        dropped = len(self.queue)
        self.queue.clear()
        self.cancelled += dropped
        self.pool._count("cancelled_runs", dropped, lease=self)

    def orphaned(self, ticket: int, executing: bool) -> None:
        """A worker died holding this ticket: requeue it, or fail it.

        Only the run the worker was executing can have killed it, so only
        that one is charged against ``max_requeues``.
        """
        if executing:
            crashes = self.requeues[ticket] = self.requeues.get(ticket, 0) + 1
            if crashes > self.max_requeues:
                self.deliver(ticket, _failed_record(
                    self.payload_of[ticket],
                    f"WorkerCrashError: worker died executing this run "
                    f"{crashes} time(s); giving up", attempts=crashes))
                return
        if self.stopped:
            self.cancelled += 1
            self.pool._count("cancelled_runs", lease=self)
        else:
            self.queue.appendleft(ticket)
            self.pool._count("requeued_runs", lease=self)
        self.wake.set()

    def send(self, worker: _Worker, ticket: int) -> None:
        """Ship one run to one worker."""
        try:
            worker.conn.send(("run", self.id, ticket, self.payload_of[ticket],
                              self.worker_fn, self.retries, self.timeout))
        except (OSError, ValueError):
            # pipe gone: back to the queue until the worker is respawned
            worker.dead = True
            self.queue.appendleft(ticket)
            return
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # the worker callable (or a payload) cannot cross the pipe —
            # an infrastructure failure, captured into the run's record
            self.deliver(ticket, _failed_record(
                self.payload_of[ticket],
                f"DispatchError: {type(exc).__name__}: {exc}"))
            return
        worker.tickets[ticket] = (self.id, time.time())
        self.pool._count("dispatched_batches", lease=self)
        self.pool._count("dispatched_runs", lease=self)


# --------------------------------------------------------------------------- #
# shared pools
# --------------------------------------------------------------------------- #
_SHARED_POOLS: Dict[Tuple[int, str], WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(n_workers: Optional[int] = None,
                start_method: Optional[str] = None) -> WorkerPool:
    """The process-wide warm pool for a worker count (created on first use).

    Every :class:`WorkerPoolExecutor` that is not given an explicit pool
    leases from here, which is what keeps workers warm *across* executor
    instances: the service's job manager builds a fresh executor per
    campaign launch, the CLI builds one per invocation of ``campaign
    run`` — all of them reuse the same processes.

    Args:
        n_workers: pool size (default
            :func:`repro.campaign.scheduler.default_pool_workers`).
        start_method: multiprocessing start method (default
            :data:`DEFAULT_START_METHOD`).

    Returns:
        The shared :class:`WorkerPool` for ``(n_workers, start_method)``.
    """
    n_workers = n_workers or default_pool_workers()
    method = start_method or DEFAULT_START_METHOD
    with _SHARED_LOCK:
        pool = _SHARED_POOLS.get((n_workers, method))
        if pool is None or pool._closed:
            pool = WorkerPool(n_workers, start_method=method)
            _SHARED_POOLS[(n_workers, method)] = pool
        return pool


def shutdown_shared_pools(timeout: float = 5.0) -> None:
    """Shut down every shared pool (idempotent; registered via ``atexit``)."""
    with _SHARED_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(timeout=timeout)


atexit.register(shutdown_shared_pools)


# --------------------------------------------------------------------------- #
# the executor
# --------------------------------------------------------------------------- #
class WorkerPoolExecutor(CampaignExecutor):
    """Campaign executor backed by a persistent warm worker pool.

    Registered as ``workers``: ``get_executor("workers", max_workers=4)``,
    ``--executor workers`` on the CLI and the service's executor options
    all reach it.  Unless an explicit ``pool`` is passed, instances lease the
    process-wide :func:`shared_pool` of their worker count, so repeated
    ``execute()`` calls — and concurrent campaigns of one service — reuse
    warm workers instead of re-spawning and re-importing per call.

    Args:
        max_workers: pool size (default
            :func:`repro.campaign.scheduler.default_pool_workers`).
        timeout: per-run cooperative wall-clock budget (seconds).
        retries: retries per failing run (inside the worker process).
        pool: explicit :class:`WorkerPool` to lease (tests, embedders);
            the caller owns its lifecycle.
        capacity: runs a worker may hold at once (one executing, the rest
            prefetched); also what a stop leaves to finish per worker.
        max_requeues: how often a run may kill its worker and be requeued
            before it is failed.
        start_method: start method of a lazily-leased shared pool.

    Attributes:
        last_stats: after :meth:`execute`, this call's share of the pool
            counters (dispatch/result/requeue/cancel/respawn
            counts).
    """

    name = "workers"

    def __init__(self, max_workers: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 0,
                 pool: Optional[WorkerPool] = None,
                 capacity: int = DEFAULT_CAPACITY,
                 max_requeues: int = DEFAULT_MAX_REQUEUES,
                 start_method: Optional[str] = None) -> None:
        super().__init__(max_workers=max_workers, timeout=timeout,
                         retries=retries)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        self._pool = pool
        self.capacity = capacity
        self.max_requeues = max_requeues
        self.start_method = start_method
        self.last_stats: Dict[str, object] = {}

    def pool(self) -> WorkerPool:
        """The pool this executor leases (shared unless one was injected)."""
        if self._pool is not None:
            return self._pool
        return shared_pool(self.max_workers, start_method=self.start_method)

    def execute(self, payloads, worker, on_record=None, should_stop=None):
        """Execute the payloads on the warm pool (see the base contract)."""
        payloads = list(payloads)
        self.last_stats = {}
        if not payloads:
            return []
        pool = self.pool()
        counters: Dict[str, int] = {}
        records = pool.run(payloads, worker, retries=self.retries,
                           timeout=self.timeout, on_record=on_record,
                           should_stop=should_stop, capacity=self.capacity,
                           max_requeues=self.max_requeues, counters=counters)
        self.last_stats = dict(counters, n_workers=pool.n_workers)
        return records


register_executor(WorkerPoolExecutor.name, WorkerPoolExecutor)
