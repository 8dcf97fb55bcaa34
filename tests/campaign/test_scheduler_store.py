"""Tests of the campaign executors, the JSONL store and resumability."""

from __future__ import annotations

import glob
import itertools
import os
import threading
from collections import Counter

import pytest

from repro.campaign import (CampaignSpec, CampaignStore, RunRecord,
                            SerialExecutor, WorkerPool, WorkerPoolExecutor,
                            aggregate, execute_run, executor_for,
                            get_campaign_preset, run_campaign)
from repro.campaign.store import STATUS_COMPLETED, STATUS_FAILED


def fake_worker(payload):
    """Deterministic stand-in for a coupled run (fast, summary from payload)."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


def diverging_worker(payload):
    """A run whose training blew up: its loss is NaN (module-level so a
    worker pool can ship it by reference)."""
    return dict(fake_worker(payload), final_total_loss=float("nan"))


def twin_fails(payload):
    """Fails the payload at index 1 only (module-level, like the above)."""
    if payload["index"] == 1:
        raise RuntimeError("twin failed")
    return {"final_total_loss": 1.0}


def counted_failure(payload):
    """Marks each call in ``payload["calls_dir"]``, then fails (module-level,
    like the above)."""
    with open(os.path.join(payload["calls_dir"], payload["run_id"]), "a",
              encoding="utf-8") as calls:
        calls.write("x")
    raise RuntimeError("seeded failure")


def statuses(store: CampaignStore) -> Counter:
    """Latest-record counts per status."""
    return Counter(record.status for record in store.records())


def cached_entries(cache) -> int:
    """Entries a :class:`ResultCache` holds on disk."""
    return len(glob.glob(os.path.join(cache.root, "*", "*.json")))


def make_executor(name: str):
    """The named executor; ``workers`` two wide."""
    return SerialExecutor() if name == "serial" \
        else WorkerPoolExecutor(max_workers=2)


def smoke_spec(**kwargs) -> CampaignSpec:
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


class TestStore:
    def test_append_and_read_back(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        assert store.records() == []
        assert store.completed_run_ids() == set()
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED,
                               summary={"final_total_loss": 1.0}))
        store.append(RunRecord(run_id="b", index=1, params={}, driver="serial",
                               n_steps=2, status=STATUS_FAILED, error="boom"))
        assert len(store.records()) == 2
        assert store.completed_run_ids() == {"a"}
        assert statuses(store) == {"completed": 1, "failed": 1}

    def test_last_record_per_run_id_wins(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_FAILED, error="boom"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED))
        assert len(store.records()) == 1
        assert store.completed_run_ids() == {"a"}

    def test_round_trips_record_fields(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        record = RunRecord(run_id="a", index=3, params={"khi.seed": 5},
                           driver="pipelined", n_steps=4,
                           status=STATUS_COMPLETED, attempts=2, elapsed_s=1.25,
                           summary={"final_total_loss": 2.5})
        store.append(record)
        assert store.records() == [record]

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        """A process killed mid-append leaves a partial last line; the store
        must still resume, losing only that in-progress run."""
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "b", "index": 1, "par')
        with pytest.warns(RuntimeWarning, match="unparseable line 2"):
            assert store.completed_run_ids() == {"a"}

    def test_append_after_truncation_starts_a_fresh_line(self, tmp_path):
        """Records appended after a kill mid-write must not be glued to the
        truncated line — the store keeps working across resumes."""
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "b", "index": 1, "par')
        store.append(RunRecord(run_id="c", index=2, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED))
        with pytest.warns(RuntimeWarning, match="unparseable line 2"):
            assert store.completed_run_ids() == {"a", "c"}

    def test_nan_losses_are_stored_as_strict_json(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED,
                               summary={"final_total_loss": float("nan")}))
        with open(store.path, encoding="utf-8") as log:
            raw = log.read()
        assert "NaN" not in raw
        assert store.records()[0].summary["final_total_loss"] is None

    def test_non_record_rows_fail_loudly(self, tmp_path):
        """Valid JSON that is not a run record means the file is not a
        campaign store — a clear ValueError, not a TypeError traceback."""
        path = tmp_path / "other.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(ValueError, match="not a campaign store"):
            CampaignStore(str(path)).records()
        path.write_text("42\n")
        with pytest.raises(ValueError, match="not a campaign store"):
            CampaignStore(str(path)).records()
        path.write_text('"just a string"\n')
        with pytest.raises(ValueError, match="not a campaign store"):
            CampaignStore(str(path)).records()


class TestExecutors:
    def test_an_unknown_executor_name_lists_the_two(self):
        with pytest.raises(ValueError, match="valid executors: serial, workers$"):
            executor_for({"executor": "quantum"})

    def test_default_pool_workers_is_machine_derived_and_bounded(
            self, monkeypatch):
        import os as os_module

        from repro.campaign import default_pool_workers
        from repro.campaign.scheduler import DEFAULT_MAX_POOL_WORKERS

        value = default_pool_workers()
        assert 2 <= value <= DEFAULT_MAX_POOL_WORKERS
        assert value <= max(2, os_module.cpu_count() or 1)
        monkeypatch.setattr("repro.campaign.scheduler.DEFAULT_MAX_POOL_WORKERS",
                            3)
        assert default_pool_workers() <= 3

    def test_default_pool_workers_counts_the_cpus_the_process_may_use(
            self, monkeypatch):
        """A 4-CPU mask on a 16-CPU host is four workers, not eight."""
        import os as os_module

        from repro.campaign import default_pool_workers

        monkeypatch.setattr(os_module, "cpu_count", lambda: 16)
        monkeypatch.setattr(os_module, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        assert default_pool_workers() == 4
        # without an affinity mask the host's count is what there is
        monkeypatch.delattr(os_module, "sched_getaffinity", raising=False)
        assert default_pool_workers() == 8

    @pytest.mark.parametrize("name", ("serial", "workers"))
    def test_executor_runs_every_payload(self, name, fork_pools):
        spec = smoke_spec(repetitions=2)
        payloads = [run.payload() for run in spec.resolve()]
        seen = []
        records = make_executor(name).execute(
            payloads, fake_worker, on_record=seen.append)
        assert [r.run_id for r in records] == [p["run_id"] for p in payloads]
        assert all(r.completed and r.attempts == 1 for r in records)
        assert sorted(r.run_id for r in seen) == sorted(r.run_id for r in records)

    def test_exceptions_are_captured_not_raised(self):
        def exploding(payload):
            raise RuntimeError("kaboom " + payload["run_id"])

        payloads = [run.payload() for run in smoke_spec(repetitions=2).resolve()]
        records = SerialExecutor().execute(payloads, exploding)
        assert all(r.status == STATUS_FAILED for r in records)
        assert all("kaboom" in r.error for r in records)

    @pytest.mark.parametrize("name", ("serial", "workers"))
    def test_a_failing_run_is_executed_once(self, name, tmp_path,
                                            fork_pools):
        """A seeded run fails the same way every time: each run is one
        attempt, recorded failed with ``attempts == 1``."""
        payloads = [dict(run.payload(), calls_dir=str(tmp_path))
                    for run in smoke_spec(repetitions=1).resolve()]
        records = make_executor(name).execute(payloads, counted_failure)
        assert [(r.status, r.attempts) for r in records] \
            == [(STATUS_FAILED, 1)] * len(payloads)
        assert all(r.error == "RuntimeError: seeded failure" for r in records)
        assert sorted(path.read_text(encoding="utf-8")
                      for path in tmp_path.iterdir()) == ["x"] * len(payloads)

    @pytest.mark.parametrize("name", ("serial", "workers"))
    def test_duplicate_run_ids_keep_their_own_records(self, name,
                                                      fork_pools):
        """The executor contract takes arbitrary payloads: two payloads
        sharing a run id must each come back with their own record."""
        payload = smoke_spec(repetitions=1).resolve()[0].payload()
        twin = dict(payload, index=1)
        records = make_executor(name).execute([payload, twin], twin_fails)
        assert [r.index for r in records] == [0, 1]
        assert [r.status for r in records] == [STATUS_COMPLETED,
                                               STATUS_FAILED]

    def test_abort_cancels_queued_runs(self):
        """Ctrl-C (or a store write failure) must not silently execute — and
        discard — every queued run before the abort surfaces."""
        payloads = [run.payload() for run in smoke_spec().resolve()]
        assert len(payloads) == 8
        calls = itertools.count()
        lock = threading.Lock()

        def interrupting(payload):
            with lock:
                attempt = next(calls)
            if attempt == 0:
                raise KeyboardInterrupt
            return {"final_total_loss": 1.0}

        with pytest.raises(KeyboardInterrupt):
            SerialExecutor().execute(payloads, interrupting)
        # the abort surfaced at once; the rest never ran
        with lock:
            executed = next(calls)
        assert executed == 1

    def test_invalid_executor_options(self):
        with pytest.raises(ValueError,
                           match="max_workers must be an integer >= 1"):
            WorkerPoolExecutor(max_workers=0)

    def test_workers_reproduce_the_serial_records(self, fork_pools):
        """The smoke campaign's real runs through both executors: the same
        run ids in submission order, every run completed, and the same
        deterministic report (losses, counters, best run)."""
        payloads = [run.payload()
                    for run in get_campaign_preset("campaign-smoke").resolve()]
        pool = WorkerPool(2)
        try:
            records = {
                "serial": SerialExecutor().execute(payloads, execute_run),
                "workers": WorkerPoolExecutor(max_workers=2, pool=pool)
                .execute(payloads, execute_run)}
        finally:
            pool.shutdown()
        assert [r.run_id for r in records["workers"]] \
            == [r.run_id for r in records["serial"]] \
            == [p["run_id"] for p in payloads]
        assert all(r.completed for r in records["workers"])
        assert aggregate(records["workers"]).deterministic_dict() \
            == aggregate(records["serial"]).deterministic_dict()

    def test_process_executor_runs_real_workflows(self, tmp_path,
                                                  fork_pools):
        spec = smoke_spec(repetitions=1)
        store = CampaignStore(str(tmp_path / "proc.jsonl"))
        outcome = run_campaign(spec, store, WorkerPoolExecutor(max_workers=2))
        assert outcome.completed == 2, [r.error for r in outcome.records]
        assert all(r.summary["ok"] for r in store.records())


class TestRunCampaign:
    def test_records_are_persisted_as_they_finish(self, tmp_path):
        spec = smoke_spec()
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        depths = []
        outcome = run_campaign(spec, store, worker=fake_worker,
                               on_record=lambda r: depths.append(len(store.records())))
        assert outcome.completed == 8 and outcome.done
        # the store grew by one row per finished run, not in one batch
        assert depths == list(range(1, 9))

    def test_failed_runs_retry_on_relaunch(self, tmp_path):
        spec = smoke_spec(repetitions=1)
        store = CampaignStore(str(tmp_path / "log.jsonl"))

        def bad(payload):
            raise RuntimeError("first launch fails")

        first = run_campaign(spec, store, worker=bad)
        assert first.failed == 2 and not first.done
        second = run_campaign(spec, store, worker=fake_worker)
        assert second.executed == 2 and second.completed == 2 and second.done
        assert statuses(store) == {"completed": 2}

    def test_raising_observer_is_detached_not_fatal(self, tmp_path, caplog):
        """The service guarantee: a buggy ``on_record`` observer must not
        kill the launch — it is logged and detached, and every run still
        executes and lands in the store."""
        spec = smoke_spec()
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        calls = []

        def bad_observer(record):
            calls.append(record.run_id)
            raise RuntimeError("subscriber bug")

        with caplog.at_level("ERROR", logger="repro.campaign.scheduler"):
            outcome = run_campaign(spec, store, worker=fake_worker,
                                   on_record=bad_observer)
        assert outcome.completed == 8 and outcome.done
        assert statuses(store) == {"completed": 8}
        # the observer raised on its first record and was detached for the
        # rest of the launch — not retried per record
        assert calls == [store.records()[0].run_id]
        assert any("detaching" in message for message in caplog.messages)

    @pytest.mark.parametrize("name", ("serial", "workers"))
    def test_a_diverged_run_fails_and_is_never_cached(self, name, tmp_path,
                                                      fork_pools):
        """Injected NaN loss: the run settles ``failed`` after its one
        attempt, the cache refuses it, and a relaunch executes it again
        instead of replaying the NaN as a hit."""
        from repro.campaign import ResultCache

        spec = smoke_spec(repetitions=1)
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = run_campaign(spec, store, make_executor(name),
                               worker=diverging_worker, cache=cache,
                               max_runs=1)
        assert outcome.failed == 1 and outcome.completed == 0
        record = outcome.records[0]
        assert record.status == STATUS_FAILED and record.attempts == 1
        assert record.error.startswith("NonFiniteLossError:")
        assert statuses(store) == {"failed": 1}
        assert cached_entries(cache) == 0
        again = run_campaign(spec, store, worker=fake_worker, cache=cache)
        assert again.cache_hits == 0 and again.executed == 2 and again.done

    def test_a_run_with_non_finite_fields_fails_and_is_never_cached(
            self, tmp_path, monkeypatch):
        """A plugin writes NaN into ``Ex`` in a real run's last step: the
        step fails, so the run settles ``failed`` and the cache refuses it."""
        from repro.campaign import ResultCache
        from repro.pic.simulation import Plugin
        from repro.workflow import WorkflowBuilder

        spec = smoke_spec(repetitions=1)

        class PoisonLastStep(Plugin):
            order = 200

            def on_step(self, simulation):
                if simulation.step_index == spec.n_steps:
                    simulation.grid.Ex[0, 0, 0] = float("nan")

        build = WorkflowBuilder.build

        def poisoned_build(builder):
            session = build(builder)
            session.simulation.add_plugin(PoisonLastStep())
            return session

        monkeypatch.setattr(WorkflowBuilder, "build", poisoned_build)
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = run_campaign(spec, store, SerialExecutor(), cache=cache,
                               max_runs=1)
        record = outcome.records[0]
        assert record.status == STATUS_FAILED
        assert record.error == (f"FloatingPointError: non-finite Ex after "
                                f"step {spec.n_steps}")
        assert statuses(store) == {"failed": 1}
        assert cached_entries(cache) == 0

    def test_max_runs_bounds_a_launch(self, tmp_path):
        spec = smoke_spec()
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        outcome = run_campaign(spec, store, worker=fake_worker, max_runs=3)
        assert outcome.summary() == {
            "campaign": "campaign-smoke", "total_runs": 8, "skipped": 0,
            "cache_hits": 0, "executed": 3, "completed": 3, "failed": 0,
            "deferred": 5, "done": False}
        with pytest.raises(ValueError):
            run_campaign(spec, store, worker=fake_worker, max_runs=-1)


class TestResumability:
    """The acceptance property: an interrupted campaign, resumed, reports
    exactly what an uninterrupted one would."""

    def six_run_spec(self) -> CampaignSpec:
        return smoke_spec(name="resume-proof",
                          parameters={"ml.base_learning_rate":
                                      [1e-3, 5e-4, 1e-4]},
                          repetitions=2, n_steps=2)

    def test_interrupted_campaign_resumes_exactly(self, tmp_path):
        from repro.campaign import aggregate

        spec = self.six_run_spec()
        assert len(spec.resolve()) == 6

        # interrupt after 3 of 6 runs (real coupled workflow runs)
        interrupted = CampaignStore(str(tmp_path / "interrupted.jsonl"))
        first = run_campaign(spec, interrupted, worker=execute_run, max_runs=3)
        assert first.executed == 3 and not first.done

        # re-launch with the same spec: exactly the 3 missing runs execute
        resumed = run_campaign(spec, interrupted, worker=execute_run)
        assert resumed.skipped == 3
        assert resumed.executed == 3
        assert resumed.completed == 3 and resumed.done

        # an uninterrupted campaign over the same spec
        uninterrupted = CampaignStore(str(tmp_path / "uninterrupted.jsonl"))
        full = run_campaign(spec, uninterrupted, worker=execute_run)
        assert full.executed == 6 and full.done

        # same run-id hashes...
        assert {r.run_id for r in interrupted.records()} == \
            {r.run_id for r in uninterrupted.records()}
        # ...and an identical aggregated report (timing excluded, losses and
        # all deterministic counters included)
        report_resumed = aggregate(interrupted.records(), campaign=spec.name)
        report_full = aggregate(uninterrupted.records(), campaign=spec.name)
        assert report_resumed.deterministic_dict() == \
            report_full.deterministic_dict()
