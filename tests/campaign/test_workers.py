"""Tests of the persistent worker-pool executor (``repro.campaign.workers``).

Every pool here uses ``start_method="fork"``: the test module is not an
importable package, so spawn-started workers could not unpickle the worker
functions defined below — and fork keeps the suite fast.  The production
default (``spawn``) is exercised structurally (clean-interpreter start) by
the benchmark harness and CI's worker-smoke job.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.campaign import (CampaignSpec, CampaignStore, WorkerPool,
                            WorkerPoolExecutor, aggregate,
                            get_campaign_preset, get_executor, run_campaign,
                            shared_pool, shutdown_shared_pools)
from repro.campaign import workers
from repro.campaign.store import STATUS_COMPLETED, STATUS_FAILED


def smoke_spec(**kwargs) -> CampaignSpec:
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


def smoke_payloads(**kwargs):
    return [run.payload() for run in smoke_spec(**kwargs).resolve()]


def fake_worker(payload):
    """Deterministic stand-in for a coupled run (fast, summary from payload)."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


def exploding_worker(payload):
    raise RuntimeError("kaboom " + payload["run_id"])


def crash_once_worker(payload):
    """Kills its host worker process the FIRST time each run executes.

    Cross-process state lives in marker files under the directory named by
    the payload's ``config["marker_dir"]`` override, so the re-dispatched
    attempt (on a respawned worker) sees the marker and completes.
    """
    marker = os.path.join(payload["config"]["marker_dir"],
                          payload["run_id"])
    if payload["config"].get("crash_ids", "all") != "all" and \
            payload["run_id"] not in payload["config"]["crash_ids"]:
        return fake_worker(payload)
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return fake_worker(payload)
    os.close(handle)
    os._exit(17)


def poison_worker(payload):
    """Kills its host worker process every time the config marks the run."""
    if payload["config"].get("poison"):
        os._exit(23)
    return fake_worker(payload)


def slow_worker(payload):
    time.sleep(float(payload["config"].get("sleep_s", 0.3)))
    return fake_worker(payload)


#: Cross-process gates, inherited by the fork-started workers below.
_FORK = multiprocessing.get_context("fork")
_BARRIER = _FORK.Barrier(2)
_GATE = _FORK.Event()


def barrier_worker(payload):
    """Completes only if two runs execute at the same time."""
    _BARRIER.wait(timeout=10)
    return dict(fake_worker(payload), pid=os.getpid())


def gated_worker(payload):
    """Blocks until the test opens ``_GATE`` — every run, or only the one a
    ``gate_id`` config key names."""
    if payload["config"].get("gate_id", payload["run_id"]) == payload["run_id"]:
        assert _GATE.wait(timeout=20), "test gate never released"
    return dict(fake_worker(payload), pid=os.getpid())


@pytest.fixture
def gate():
    _GATE.clear()
    yield _GATE
    _GATE.set()


def wait_for(predicate, timeout=15.0, message="condition"):
    """Poll a predicate until true (fail loudly instead of hanging)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.005)


def loads(pool):
    """Runs each worker currently holds, by slot."""
    with pool._lock:
        return [len(worker.tickets) for worker in pool._workers]


def with_config(payloads, **extra):
    """Copies of the payloads with extra keys merged into their configs."""
    return [dict(p, config=dict(p["config"], **extra)) for p in payloads]


@pytest.fixture
def pool(fast_heartbeat):
    pool = WorkerPool(2, start_method="fork")
    yield pool
    pool.shutdown()


class TestWorkerPoolBasics:
    def test_records_in_submission_order_with_serialized_observer(self, pool):
        payloads = smoke_payloads()
        seen = []
        records = pool.run(payloads, fake_worker, {}, on_record=seen.append)
        assert [r.run_id for r in records] == [p["run_id"] for p in payloads]
        assert all(r.completed and r.attempts == 1 for r in records)
        assert sorted(r.run_id for r in seen) == \
            sorted(r.run_id for r in records)

    def test_workers_stay_warm_across_runs(self, pool):
        payloads = smoke_payloads()
        pool.run(payloads, fake_worker, {})
        pids = pool.worker_pids()
        pool.run(payloads, fake_worker, {})
        assert pool.worker_pids() == pids
        assert all(pid is not None for pid in pids)

    def test_exceptions_are_captured_not_raised(self, pool):
        records = pool.run(smoke_payloads(repetitions=1), exploding_worker, {})
        assert all(r.status == STATUS_FAILED for r in records)
        assert all("kaboom" in r.error for r in records)

    def test_duplicate_run_ids_keep_their_own_records(self, pool):
        payload = smoke_payloads(repetitions=1)[0]
        twin = dict(payload, index=1)
        records = pool.run([payload, twin], fake_worker, {})
        assert len(records) == 2
        assert [r.index for r in records] == [payload["index"], 1]

    def test_empty_payloads(self, pool):
        assert pool.run([], fake_worker, {}) == []

    def test_timeout_is_applied_inside_the_worker(self, pool):
        payloads = with_config(smoke_payloads(repetitions=1)[:1], sleep_s=0.1)
        record = pool.run(payloads, slow_worker, {}, timeout=0.01)[0]
        assert record.completed
        assert "TimeoutWarning" in record.error

    def test_unpicklable_worker_becomes_failed_records(self, pool):
        records = pool.run(smoke_payloads(repetitions=1),
                           lambda payload: {"ok": True}, {})
        assert all(r.status == STATUS_FAILED for r in records)
        assert all("DispatchError" in r.error for r in records)
        # the pool survives a dispatch failure and keeps serving
        assert all(r.completed for r in pool.run(smoke_payloads(repetitions=1),
                                                 fake_worker, {}))

    def test_invalid_arguments(self, pool):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(2, start_method="teleport")

    def test_shutdown_pool_refuses_new_work(self):
        pool = WorkerPool(1, start_method="fork")
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run(smoke_payloads(repetitions=1), fake_worker, {})

    def test_one_pipe_message_per_run(self, pool):
        """Dispatch is run-granular: as many messages as runs."""
        payloads = smoke_payloads()
        pool.run(payloads, fake_worker, {})
        assert pool.counters["dispatched_runs"] == len(payloads)
        assert pool.counters["dispatched_batches"] == len(payloads)


class TestDispatchShape:
    def test_two_runs_execute_on_two_workers_at_once(self, pool):
        """Breadth-first: with two runs and two workers nobody idles —
        the barrier only opens if both runs execute concurrently."""
        records = pool.run(smoke_payloads(repetitions=1), barrier_worker, {})
        assert all(r.completed for r in records), [r.error for r in records]
        assert len({r.summary["pid"] for r in records}) == 2

    def test_no_prefetch_while_a_worker_holds_nothing(self, pool, gate):
        """capacity=2: the third run is prefetched only after both workers
        hold one, and nobody ever holds more than ``capacity``."""
        payloads = smoke_payloads()
        result = {}
        thread = threading.Thread(target=lambda: result.update(
            records=pool.run(payloads[:3], gated_worker, {})))
        thread.start()
        wait_for(lambda: pool.stats()["dispatched_runs"] == 3,
                 message="three dispatches")
        assert sorted(loads(pool)) == [1, 2]
        gate.set()
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert all(r.completed for r in result["records"])
        assert len({r.summary["pid"] for r in result["records"]}) == 2

    def test_a_finishing_worker_pulls_the_next_run(self, pool, gate):
        """Eight gated runs: exactly capacity x workers are out at once,
        the rest stay queued in the parent until a worker answers."""
        payloads = smoke_payloads()
        result = {}
        thread = threading.Thread(target=lambda: result.update(
            records=pool.run(payloads, gated_worker, {})))
        thread.start()
        wait_for(lambda: pool.stats()["dispatched_runs"] == 4,
                 message="the pool to fill")
        assert loads(pool) == [2, 2]
        assert pool.stats()["results"] == 0
        gate.set()
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert [r.run_id for r in result["records"]] == \
            [p["run_id"] for p in payloads]
        assert pool.stats()["dispatched_runs"] == len(payloads)


class TestCooperativeStop:
    def test_stop_drops_the_queue_and_lets_held_runs_finish(self, pool, gate):
        payloads = smoke_payloads()
        seen, stats, result = [], {}, {}
        stop = threading.Event()
        thread = threading.Thread(target=lambda: result.update(
            records=pool.run(payloads, gated_worker, stats,
                             on_record=seen.append, should_stop=stop.is_set)))
        thread.start()
        wait_for(lambda: pool.stats()["dispatched_runs"] == 4,
                 message="the pool to fill")
        stop.set()
        wait_for(lambda: pool.stats()["cancelled_runs"] == 4,
                 message="the queue to be dropped")
        gate.set()
        thread.join(timeout=20)
        assert not thread.is_alive()
        records = result["records"]
        # at most capacity per worker finished; nothing else started
        assert [r is not None for r in records] == [True] * 4 + [False] * 4
        assert all(r.completed for r in records[:4])
        assert sorted(r.run_id for r in seen) == \
            sorted(p["run_id"] for p in payloads[:4])
        assert stats["cancelled_runs"] == 4 and stats["dispatched_runs"] == 4
        assert pool.stats()["respawns"] == 0     # nobody was killed

    def test_stop_before_anything_started(self, pool):
        payloads = smoke_payloads(repetitions=1)
        assert pool.run(payloads, fake_worker, {}, should_stop=lambda: True) == \
            [None, None]
        assert pool.stats()["dispatched_runs"] == 0


class TestConcurrentLeases:
    def test_two_leases_interleave_run_by_run(self, pool, gate, monkeypatch):
        """A second lease is not parked behind the first one's queue: free
        slots go to the lease with fewer runs in flight."""
        from repro.campaign.workers import _Lease

        # the order the pool hands runs to workers — what its fairness decides
        # (the order two owner threads fire on_record is the scheduler's)
        sends, send = [], _Lease.send

        def recording_send(lease, worker, ticket):
            sends.append(lease.id)
            send(lease, worker, ticket)

        monkeypatch.setattr(_Lease, "send", recording_send)
        first = smoke_payloads()                       # 8 runs
        second = smoke_payloads(n_steps=3)             # 8 other run ids
        assert not {p["run_id"] for p in first} & {p["run_id"] for p in second}
        order, order_lock = [], threading.Lock()

        def observer(tag):
            def on_record(record):
                with order_lock:
                    order.append((tag, record.run_id))
            return on_record

        executors = {tag: WorkerPoolExecutor(max_workers=2, pool=pool)
                     for tag in ("first", "second")}
        results = {}

        def launch(tag, payloads):
            results[tag] = executors[tag].execute(payloads, gated_worker,
                                                  on_record=observer(tag))

        threads = [threading.Thread(target=launch, args=("first", first))]
        threads[0].start()
        wait_for(lambda: pool.stats()["dispatched_runs"] == 4,
                 message="the first lease to fill the pool")
        threads.append(threading.Thread(target=launch,
                                        args=("second", second)))
        threads[1].start()
        wait_for(lambda: len(pool._leases) == 2, message="the second lease")
        # stats() answers while two leases are mid-drain
        assert pool.stats()["results"] == 0
        gate.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(sends) == 16 and len(set(sends)) == 2
        first_lease = sends[0]                 # it filled the pool alone
        last_of_first = len(sends) - 1 - sends[::-1].index(first_lease)
        first_of_second = next(i for i, lease in enumerate(sends)
                               if lease != first_lease)
        assert first_of_second < last_of_first
        # no record crossed leases, each in its own submission order
        assert [r.run_id for r in results["first"]] == \
            [p["run_id"] for p in first]
        assert [r.run_id for r in results["second"]] == \
            [p["run_id"] for p in second]
        assert {run_id for tag, run_id in order if tag == "second"} == \
            {p["run_id"] for p in second}
        # the per-lease counters add up to the pool's
        for key, total in pool.counters.items():
            assert sum(executor.last_stats[key]
                       for executor in executors.values()) == total, key
        assert executors["second"].last_stats["dispatched_runs"] == 8

    def test_many_leases_on_few_workers_lose_nothing(self, pool):
        """Stress: more lease threads than workers (and cores), a short
        switch interval — every lease still gets exactly its own records."""
        import sys

        payload_sets = [smoke_payloads(n_steps=2 + n) for n in range(6)]
        results, errors = {}, []

        def launch(n):
            try:
                results[n] = pool.run(payload_sets[n], fake_worker, {})
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=launch, args=(n,))
                       for n in range(len(payload_sets))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for n, payloads in enumerate(payload_sets):
            assert [r.run_id for r in results[n]] == \
                [p["run_id"] for p in payloads]
            assert all(r.completed for r in results[n])
        assert pool.counters["results"] == pool.counters["dispatched_runs"] \
            == sum(len(payloads) for payloads in payload_sets)
        assert pool.counters["stale_results_dropped"] == 0


class TestCrashRequeue:
    def test_killed_worker_mid_campaign_matches_serial(self, pool, tmp_path):
        """The satellite acceptance test: a worker dying mid-campaign is
        respawned, its in-flight runs are requeued, and the completed
        campaign's records equal a serial launch's (modulo timing and
        attempt counts)."""
        payloads = with_config(smoke_payloads(), marker_dir=str(tmp_path),
                               crash_ids="all")
        records = pool.run(payloads, crash_once_worker, {})
        serial = get_executor("serial").execute(payloads, crash_once_worker)
        assert [r.run_id for r in records] == [r.run_id for r in serial]
        assert all(r.completed for r in records)
        assert pool.counters["respawns"] >= 1
        assert pool.counters["requeued_runs"] >= 1
        assert aggregate(records).deterministic_dict() == \
            aggregate(serial).deterministic_dict()

    def test_poison_run_fails_after_bounded_requeues(self, pool, tmp_path,
                                                     monkeypatch):
        """A run that reliably kills its worker must not requeue forever:
        after MAX_REQUEUES worker deaths it gets a failed record, and the
        rest of the campaign still completes."""
        monkeypatch.setattr(workers, "MAX_REQUEUES", 1)
        payloads = smoke_payloads()
        poison_id = payloads[3]["run_id"]
        payloads[3] = dict(payloads[3],
                           config=dict(payloads[3]["config"], poison=True))

        records = pool.run(payloads, poison_worker, {})
        by_id = {r.run_id: r for r in records}
        assert by_id[poison_id].status == STATUS_FAILED
        assert "WorkerCrashError" in by_id[poison_id].error
        others = [r for r in records if r.run_id != poison_id]
        assert all(r.completed for r in others)

    def test_a_crash_is_charged_to_the_executing_run_only(self, fast_heartbeat,
                                                          monkeypatch):
        """A run prefetched behind a poison run is innocent: with
        ``MAX_REQUEUES = 0`` only the poison run may fail."""
        monkeypatch.setattr(workers, "MAX_REQUEUES", 0)
        pool = WorkerPool(1, start_method="fork")
        try:
            payloads = smoke_payloads(repetitions=1)   # 2 runs, 1 worker
            payloads[0] = dict(payloads[0],
                               config=dict(payloads[0]["config"], poison=True))
            poisoned, neighbour = pool.run(payloads, poison_worker, {})
        finally:
            pool.shutdown()
        assert poisoned.status == STATUS_FAILED
        assert "WorkerCrashError" in poisoned.error
        assert neighbour.completed and neighbour.attempts == 1
        assert pool.counters["respawns"] == 1

    def test_externally_killed_worker_is_detected_and_replaced(self, pool):
        """SIGKILL from outside (OOM killer, operator) while runs are in
        flight: liveness detection requeues and the campaign completes."""
        assert pool.wait_ready()
        victim = next(pid for pid in pool.worker_pids() if pid is not None)
        payloads = with_config(smoke_payloads(), sleep_s=0.2)
        result = {}

        def launch():
            result["records"] = pool.run(payloads, slow_worker, {})

        thread = threading.Thread(target=launch)
        thread.start()
        time.sleep(0.3)   # let both workers start computing
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert all(r.completed for r in result["records"])
        assert pool.counters["respawns"] >= 1
        assert victim not in pool.worker_pids()


class TestAbortedLease:
    def test_late_results_are_dropped_not_misattributed(self, pool, gate):
        """A lease whose observer raises (an unwritable store) ends with a
        run still out; its late result is discarded by the next lease
        instead of being credited to an unrelated run."""
        payloads = smoke_payloads(repetitions=1)
        payloads = with_config(payloads, gate_id=payloads[1]["run_id"])

        def unwritable_store(record):
            raise OSError("no space left on device")

        # two runs, two workers: the ungated one answers, the observer
        # raises, and the lease ends with the gated one parked on a worker
        with pytest.raises(OSError):
            pool.run(payloads, gated_worker, {}, on_record=unwritable_store)
        assert sorted(loads(pool)) == [0, 1]
        gate.set()
        # four runs over three free slots: the parked worker gets one, and
        # its pipe is first-in-first-out, so the late result is read (and
        # dropped) before this launch can finish
        later = smoke_payloads(repetitions=2)
        again = pool.run(later, fake_worker, {})
        assert [r.run_id for r in again] == [p["run_id"] for p in later]
        assert [r.summary for r in again] == [fake_worker(p) for p in later]
        assert pool.counters["stale_results_dropped"] == 1
        assert loads(pool) == [0, 0]


class TestWorkerPoolExecutor:
    def test_registered_and_validated(self):
        executor = get_executor("workers", max_workers=3, retries=1,
                                timeout=5.0)
        assert isinstance(executor, WorkerPoolExecutor)
        assert executor.max_workers == 3

    def test_executor_reports_per_call_stats(self, pool):
        executor = WorkerPoolExecutor(max_workers=2, pool=pool)
        payloads = smoke_payloads()
        executor.execute(payloads, fake_worker)
        first = dict(executor.last_stats)
        assert first["dispatched_runs"] == len(payloads)
        assert first["results"] == len(payloads)
        assert first["cancelled_runs"] == 0 and first["n_workers"] == 2
        # stats are per execute() call, not cumulative
        executor.execute(payloads[:2], fake_worker)
        assert executor.last_stats["dispatched_runs"] == 2

    def test_run_campaign_with_real_workflow_runs(self, pool, tmp_path):
        """End-to-end: the workers executor drives the real coupled
        workflow worker through run_campaign, store and all."""
        spec = smoke_spec(repetitions=1)
        store = CampaignStore(str(tmp_path / "workers.jsonl"))
        executor = WorkerPoolExecutor(max_workers=2, pool=pool)
        outcome = run_campaign(spec, store, executor)
        assert outcome.completed == 2, [r.error for r in outcome.records]
        assert all(r.summary["ok"] for r in store.records())

    def test_repeated_launches_reuse_the_same_workers(self, pool):
        """Campaign after campaign (fresh executor each, as the service
        builds them) must land on the same warm worker processes."""
        payloads = smoke_payloads()
        WorkerPoolExecutor(max_workers=2, pool=pool).execute(payloads,
                                                             fake_worker)
        pids = pool.worker_pids()
        for _ in range(3):
            WorkerPoolExecutor(max_workers=2, pool=pool).execute(
                payloads, fake_worker)
        assert pool.worker_pids() == pids
        assert pool.counters["respawns"] == 0

    def test_records_identical_across_serial_workers_and_the_shared_pool(
            self, pool, monkeypatch):
        monkeypatch.setattr("repro.campaign.workers.DEFAULT_START_METHOD",
                            "fork")
        shutdown_shared_pools()
        payloads = smoke_payloads()
        try:
            reports = [
                aggregate(executor.execute(payloads, fake_worker))
                .deterministic_dict()
                for executor in (
                    get_executor("serial"),
                    WorkerPoolExecutor(max_workers=2, pool=pool),
                    get_executor("workers", max_workers=2))]
        finally:
            shutdown_shared_pools()
        assert reports[0] == reports[1] == reports[2]

    def test_shared_pool_is_shared_across_executors(self, monkeypatch):
        monkeypatch.setattr("repro.campaign.workers.DEFAULT_START_METHOD",
                            "fork")
        shutdown_shared_pools()
        try:
            first = WorkerPoolExecutor(max_workers=2)
            second = WorkerPoolExecutor(max_workers=2)
            assert first.pool() is second.pool()
            assert first.pool() is shared_pool(2)
            first.execute(smoke_payloads(repetitions=1), fake_worker)
            pids = first.pool().worker_pids()
            second.execute(smoke_payloads(repetitions=1), fake_worker)
            assert second.pool().worker_pids() == pids
            # a different width is a different pool
            assert shared_pool(3) is not first.pool()
        finally:
            shutdown_shared_pools()
        # after shutdown, leasing again builds a fresh (open) pool
        fresh = shared_pool(2)
        assert not fresh._closed
        shutdown_shared_pools()
