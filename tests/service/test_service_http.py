"""End-to-end tests of the campaign service over real HTTP.

A :class:`CampaignServiceServer` runs on a live socket in a background
thread with a fake (fast, deterministic) worker; every assertion goes
through :class:`repro.service.client.ServiceClient` — the same
urllib+SSE path the CLI, the CI smoke job and real users take.  One
restart test drives the job manager directly, because what it restarts on
is a store directory written by an older release.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing
import os
import re
import threading
import time

import pytest

from sse_helpers import run_ids_of

from repro.campaign import (CampaignSpec, CampaignStore, get_campaign_preset,
                            run_campaign, shared_pool)
from repro.service import bus as bus_module
from repro.service import jobs
from repro.service.bus import RunEventBus
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import CampaignJobManager, campaign_id_of
from repro.service.server import create_server, parse_submission


def fake_worker(payload):
    """Deterministic stand-in for a coupled run (same idiom as campaign tests)."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


class GatedWorker:
    """A worker whose runs after the first block until ``gate`` is set.

    Gating is keyed on ``n_steps`` so one server can host a gated campaign
    and a free-running one at the same time.
    """

    def __init__(self, gated_n_steps=None):
        self.gate = threading.Event()
        self.first_done = threading.Event()
        self.gated_n_steps = gated_n_steps
        self._count = itertools.count()

    def __call__(self, payload):
        gated = (self.gated_n_steps is None
                 or payload["n_steps"] == self.gated_n_steps)
        if gated and next(self._count) > 0:
            assert self.gate.wait(timeout=30), "test gate never released"
        result = fake_worker(payload)
        if gated:
            self.first_done.set()
        return result


#: Cross-process gate for campaigns on the (fork-started) worker pool.
_POOL_GATE = multiprocessing.get_context("fork").Event()


def pool_gated_worker(payload):
    """Picklable worker: run 0 of a sweep completes at once, every other
    run blocks until the test opens ``_POOL_GATE``."""
    if payload["index"] != 0:
        assert _POOL_GATE.wait(timeout=30), "test gate never released"
    return fake_worker(payload)


def pool_blocked_worker(payload):
    """Picklable worker: every run blocks until ``_POOL_GATE`` opens, then
    takes long enough for several rounds of dispatch to be told apart."""
    assert _POOL_GATE.wait(timeout=30), "test gate never released"
    time.sleep(0.02)
    return fake_worker(payload)


@pytest.fixture
def fork_pool(fork_pools):
    """The process-wide 2-worker pool the service leases, fork-started
    (spawned workers could not import this test module), gate closed."""
    _POOL_GATE.clear()
    yield shared_pool(2)
    _POOL_GATE.set()


class OrderedBus(RunEventBus):
    """The service bus, noting the order of publishes across campaigns."""

    def __init__(self):
        super().__init__()
        self.order = []
        self._order_lock = threading.Lock()

    def publish(self, topic, kind, data):
        with self._order_lock:
            self.order.append((topic, kind))
        return super().publish(topic, kind, data)


def stored_run_ids(status):
    """Run ids in a campaign's store file, one per line written."""
    with open(status["store"], encoding="utf-8") as handle:
        return sorted(json.loads(line)["run_id"] for line in handle)


def small_spec(name="svc-test", repetitions=1, n_steps=2):
    """A tiny campaign (2 × repetitions runs) riding the smoke preset."""
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(name=name, repetitions=repetitions, n_steps=n_steps)
    return CampaignSpec.from_dict(base)


@contextlib.contextmanager
def service(tmp_path, worker=fake_worker, subdir="svc", keepalive_s=0.2,
            **kwargs):
    """A live service on a free port + a client pointed at it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bus_module, "KEEPALIVE_S", keepalive_s)
        patch.setattr(jobs, "JOIN_TIMEOUT_S", 10.0)
        server = create_server(store_dir=str(tmp_path / subdir), worker=worker,
                               **kwargs)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            yield ServiceClient(server.url, timeout=15), server
        finally:
            server.shutdown_service()
            thread.join(timeout=5)


def watch_in_thread(client, campaign_id):
    """Start collecting a campaign's SSE events on a background thread."""
    events = []
    def _watch():
        events.extend(client.watch(campaign_id))
    thread = threading.Thread(target=_watch, daemon=True)
    thread.start()
    return events, thread


def wait_for(predicate, timeout=15.0, message="condition"):
    """Poll a predicate until true (tests fail loudly instead of hanging)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.02)


def sse_run_ids(events):
    """Run ids over parsed SSEEvent objects (snapshot + run frames)."""
    return run_ids_of([{"event": e.event, "data": e.data} for e in events])


class TestSubmitAndStream:
    def test_submit_streams_every_run_and_completes(self, tmp_path):
        spec = small_spec()
        expected = sorted(run.run_id for run in spec.resolve())
        with service(tmp_path) as (client, _):
            assert client.wait_ready()["status"] == "ok"
            submitted = client.submit(spec=spec.to_dict())
            assert submitted["created"] and submitted["started"]
            assert submitted["total_runs"] == len(expected)
            events = list(client.watch(submitted["campaign_id"]))
            assert sorted(sse_run_ids(events)) == expected
            assert events[-1].event == "done"
            assert events[-1].data["state"] == "completed"
            status = client.status(submitted["campaign_id"])
            assert status["completed"] == len(expected)
            assert status["done"] is True
            assert len(status["records"]) == len(expected)
            report = client.report(submitted["campaign_id"])
            assert report["n_runs"] == len(expected)
            listed = client.list_campaigns()
            assert [doc["campaign_id"] for doc in listed] == \
                [submitted["campaign_id"]]

    def test_submit_by_preset_name(self, tmp_path):
        with service(tmp_path) as (client, _):
            submitted = client.submit(preset="campaign-smoke")
            done = [e for e in client.watch(submitted["campaign_id"])
                    if e.event == "done"][0]
            assert done.data["state"] == "completed"
            assert done.data["completed"] == submitted["total_runs"]

    def test_resubmit_is_idempotent(self, tmp_path):
        spec = small_spec()
        with service(tmp_path) as (client, _):
            first = client.submit(spec=spec.to_dict())
            list(client.watch(first["campaign_id"]))
            again = client.submit(spec=spec.to_dict())
            assert again["campaign_id"] == first["campaign_id"]
            assert again["created"] is False
            assert again["started"] is False      # nothing left to run
            # the replayed stream still tells the whole story
            events = list(client.watch(first["campaign_id"]))
            assert sorted(sse_run_ids(events)) == \
                sorted(run.run_id for run in spec.resolve())
            assert events[-1].event == "done"

    def test_cache_replay_on_a_renamed_copy(self, tmp_path):
        """The CI smoke invariant: a renamed copy of a finished sweep with
        the same cache dir completes entirely from cache."""
        cache_dir = str(tmp_path / "cache")
        with service(tmp_path) as (client, _):
            spec = small_spec(name="cache-original")
            first = client.submit(spec=spec.to_dict(), cache_dir=cache_dir)
            done = list(client.watch(first["campaign_id"]))[-1]
            assert done.data["state"] == "completed"
            renamed = small_spec(name="cache-replay")
            second = client.submit(spec=renamed.to_dict(), cache_dir=cache_dir)
            assert second["campaign_id"] != first["campaign_id"]
            done = list(client.watch(second["campaign_id"]))[-1]
            assert done.data["state"] == "completed"
            assert done.data["cached"] == done.data["total_runs"]


class TestConcurrentSubscribers:
    def test_two_subscribers_each_see_every_run_exactly_once(self, tmp_path):
        """The acceptance criterion: subscriber A (connected at submit
        time) and subscriber B (connected mid-campaign) both receive every
        RunRecord exactly once across snapshot + live frames."""
        worker = GatedWorker()
        spec = small_spec(name="two-subs", repetitions=2)   # 4 runs
        expected = sorted(run.run_id for run in spec.resolve())
        with service(tmp_path, worker=worker) as (client, _):
            submitted = client.submit(spec=spec.to_dict())
            campaign_id = submitted["campaign_id"]
            events_a, thread_a = watch_in_thread(client, campaign_id)
            assert worker.first_done.wait(timeout=15)
            # B connects only once at least one record definitely exists,
            # so part of its stream is snapshot replay by construction
            wait_for(lambda: client.status(campaign_id)["completed"] >= 1,
                     message="first completed record")
            events_b, thread_b = watch_in_thread(client, campaign_id)
            worker.gate.set()
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)
            assert not thread_a.is_alive() and not thread_b.is_alive()
            for events in (events_a, events_b):
                assert sorted(sse_run_ids(events)) == expected  # exactly once
                assert events[-1].event == "done"
                assert events[-1].data["state"] == "completed"
            assert any(e.event == "snapshot" for e in events_b)

    def test_campaign_submitted_while_another_runs_makes_progress(self, tmp_path):
        """The second acceptance criterion: a fresh submission is not
        starved by a running campaign."""
        worker = GatedWorker(gated_n_steps=3)
        blocked = small_spec(name="long-haul", n_steps=3)
        quick = small_spec(name="drive-by", n_steps=2)
        with service(tmp_path, worker=worker) as (client, _):
            first = client.submit(spec=blocked.to_dict())
            assert worker.first_done.wait(timeout=15)
            second = client.submit(spec=quick.to_dict())
            done = list(client.watch(second["campaign_id"]))[-1]
            assert done.data["state"] == "completed"
            assert client.status(first["campaign_id"])["state"] == "running"
            worker.gate.set()
            done = list(client.watch(first["campaign_id"]))[-1]
            assert done.data["state"] == "completed"


    def test_two_campaigns_share_the_worker_pool_run_by_run(self, tmp_path,
                                                            fork_pool):
        """The same property on the warm pool: two ``workers`` campaigns
        submitted back to back both stream runs before either finishes."""
        bus = OrderedBus()
        specs = [small_spec(name="pool-first", repetitions=4),
                 small_spec(name="pool-second", repetitions=4, n_steps=3)]
        with service(tmp_path, worker=pool_blocked_worker, bus=bus) \
                as (client, _):
            ids = []
            for spec in specs:
                ids.append(client.submit(spec=spec.to_dict(),
                                         executor="workers",
                                         max_workers=2)["campaign_id"])
                # the first campaign fills the pool before the second arrives
                wait_for(lambda: fork_pool.stats()["dispatched_runs"] >= 4,
                         message="the pool to fill")
            wait_for(lambda: len(fork_pool._leases) == 2,
                     message="both campaigns to lease the pool")
            _POOL_GATE.set()
            for campaign_id in ids:
                done = list(client.watch(campaign_id))[-1]
                assert done.data["state"] == "completed"
                assert done.data["completed"] == 8
        first_done = bus.order.index((ids[0], "done"))
        second_done = bus.order.index((ids[1], "done"))
        assert bus.order.index((ids[1], "run")) < first_done
        assert bus.order.index((ids[0], "run")) < second_done


class TestCancelAndResume:
    def test_cancel_keeps_finished_runs_and_resubmit_resumes(self, tmp_path):
        worker = GatedWorker()
        spec = small_spec(name="cancel-me", repetitions=2)   # 4 runs
        expected = sorted(run.run_id for run in spec.resolve())
        with service(tmp_path, worker=worker) as (client, _):
            submitted = client.submit(spec=spec.to_dict())
            campaign_id = submitted["campaign_id"]
            assert worker.first_done.wait(timeout=15)
            wait_for(lambda: client.status(campaign_id)["completed"] == 1,
                     message="the first record")
            cancelled = client.cancel(campaign_id)
            assert cancelled["state"] in ("cancelling", "cancelled")
            worker.gate.set()                 # let the in-flight run finish
            wait_for(lambda: client.status(campaign_id)["state"] == "cancelled",
                     message="cancelled state")
            status = client.status(campaign_id)
            # the serial executor starts nothing once the flag is up: the
            # finished run and at most the one in flight have records
            assert 1 <= status["completed"] <= 2
            assert status["failed"] == 0
            # resubmitting the same spec resumes exactly the pending part
            again = client.submit(spec=spec.to_dict())
            assert again["created"] is False and again["started"] is True
            done = list(client.watch(campaign_id))[-1]
            assert done.data["state"] == "completed"
            assert done.data["completed"] == done.data["total_runs"]
            assert stored_run_ids(done.data) == expected   # each exactly once

    def test_cancel_on_the_worker_pool_finishes_held_runs_only(self, tmp_path,
                                                               fork_pool):
        """``executor=workers``: after DELETE the runs the workers hold
        (at most capacity x workers) finish, the queue is dropped, nobody
        is killed, and a resubmit runs exactly the remainder."""
        spec = small_spec(name="cancel-pool", repetitions=4)   # 8 runs
        expected = sorted(run.run_id for run in spec.resolve())
        with service(tmp_path, worker=pool_gated_worker) as (client, _):
            campaign_id = client.submit(spec=spec.to_dict(), executor="workers",
                                        max_workers=2)["campaign_id"]
            # run 0 completes ungated; its slot is refilled, so four gated
            # runs are out on the two workers and three wait in the queue
            wait_for(lambda: client.status(campaign_id)["completed"] == 1
                     and fork_pool.stats()["dispatched_runs"] == 5,
                     message="the first record and a full pool")
            assert client.cancel(campaign_id)["state"] == "cancelling"
            wait_for(lambda: fork_pool.stats()["cancelled_runs"] == 3,
                     message="the queue to be dropped")
            _POOL_GATE.set()
            wait_for(lambda: client.status(campaign_id)["state"] == "cancelled",
                     message="cancelled state")
            status = client.status(campaign_id)
            assert status["completed"] == 5 and status["failed"] == 0
            pool_stats = status["telemetry"]["executor"]
            assert pool_stats["cancelled_runs"] == 3
            assert pool_stats["dispatched_runs"] == 5
            assert pool_stats["respawns"] == 0          # none was killed
            again = client.submit(spec=spec.to_dict(), executor="workers",
                                  max_workers=2)
            assert again["created"] is False and again["started"] is True
            done = list(client.watch(campaign_id))[-1]
            assert done.data["state"] == "completed"
            assert done.data["completed"] == 8
            assert done.data["telemetry"]["executor"]["dispatched_runs"] == 3
            assert stored_run_ids(done.data) == expected   # each exactly once

    def test_cancel_unknown_campaign_is_404(self, tmp_path):
        with service(tmp_path) as (client, _):
            with pytest.raises(ServiceError) as excinfo:
                client.cancel("no-such-campaign")
            assert excinfo.value.status == 404


class TestRestartResume:
    def test_a_new_server_on_the_same_store_resumes_the_campaign(self, tmp_path):
        """The restart story: stores + spec files on disk are the whole
        service state, so a fresh server attaches and finishes the job."""
        worker = GatedWorker()
        spec = small_spec(name="restartable", repetitions=2)
        with service(tmp_path, worker=worker) as (client, _):
            submitted = client.submit(spec=spec.to_dict())
            campaign_id = submitted["campaign_id"]
            assert worker.first_done.wait(timeout=15)
            client.cancel(campaign_id)
            worker.gate.set()
            wait_for(lambda: client.status(campaign_id)["state"] == "cancelled",
                     message="cancelled state")
        # same store_dir, brand-new server/manager (ungated worker now)
        with service(tmp_path, worker=fake_worker) as (client, _):
            status = client.status(campaign_id)
            assert status["state"] == "interrupted"
            assert 0 < status["completed"] < status["total_runs"]
            again = client.submit(spec=spec.to_dict())
            assert again["created"] is False and again["started"] is True
            events = list(client.watch(campaign_id))
            assert events[-1].data["state"] == "completed"
            # snapshot replay covers the pre-restart records too
            assert sorted(sse_run_ids(events)) == \
                sorted(run.run_id for run in spec.resolve())

    def test_a_completed_campaign_is_listed_after_restart(self, tmp_path):
        spec = small_spec(name="finished-then-restarted")
        with service(tmp_path) as (client, _):
            submitted = client.submit(spec=spec.to_dict())
            list(client.watch(submitted["campaign_id"]))
        with service(tmp_path) as (client, _):
            listed = client.list_campaigns()
            assert [doc["state"] for doc in listed] == ["completed"]
            again = client.submit(spec=spec.to_dict())
            assert again["created"] is False and again["started"] is False

    def test_a_restarted_campaign_without_a_launch_ends_its_watch_at_once(
            self, tmp_path):
        """Restarted, a never-started campaign (a spec file and no store)
        and a half-done one are both ``interrupted``: a watch replays what
        is recorded and ends on one ``done`` at once, not one keep-alive
        later (the keep-alive stays at its 15 s default)."""
        store_dir = tmp_path / "svc"
        store_dir.mkdir()
        never, half = small_spec(name="never-started"), small_spec(
            name="half-done")
        for spec in (never, half):
            spec.to_file(str(store_dir / f"{campaign_id_of(spec)}.spec.json"))
        store = CampaignStore(
            str(store_dir / f"{campaign_id_of(half)}.campaign.jsonl"))
        run_campaign(half, store, worker=fake_worker, max_runs=1)
        with service(tmp_path, keepalive_s=bus_module.KEEPALIVE_S) \
                as (client, _):
            for spec, recorded in ((never, 0), (half, 1)):
                started = time.monotonic()
                events = list(client.watch(campaign_id_of(spec)))
                assert time.monotonic() - started < 2.0
                assert [event.event for event in events] == \
                    ["snapshot"] * recorded + ["done"]
                assert events[-1].data["state"] == "interrupted"
                assert events[-1].data["completed"] == recorded

    def test_a_spec_file_with_a_removed_key_is_skipped_and_resubmit_resumes(
            self, tmp_path, caplog, monkeypatch):
        """A spec file written when specs still carried ``routing`` no
        longer loads on restart.  The campaign id never hashed that key,
        so resubmitting the sweep reattaches to its store and executes
        only the runs it had not completed."""
        spec = small_spec(name="written-before", repetitions=2)   # 4 runs
        campaign_id = campaign_id_of(spec)
        store_dir = tmp_path / "svc"
        store_dir.mkdir()
        store = CampaignStore(str(store_dir / f"{campaign_id}.campaign.jsonl"))
        run_campaign(spec, store, worker=fake_worker, max_runs=2)
        finished = store.completed_run_ids()
        assert len(finished) == 2
        with open(store_dir / f"{campaign_id}.spec.json", "w",
                  encoding="utf-8") as handle:
            json.dump(dict(spec.to_dict(), routing={}), handle)

        executed = []

        def refusing_finished(payload):
            assert payload["run_id"] not in finished, "re-executed a run"
            executed.append(payload["run_id"])
            return fake_worker(payload)

        with caplog.at_level("WARNING", logger="repro.service.jobs"):
            manager = CampaignJobManager(str(store_dir),
                                         worker=refusing_finished)
        assert manager.jobs() == []
        assert f"skipping unloadable campaign {campaign_id}" in caplog.text
        assert "unknown CampaignSpec keys ['routing']" in caplog.text

        job, created, started = manager.submit(spec, {})
        assert (job.id, created, started) == (campaign_id, True, True)
        monkeypatch.setattr(jobs, "JOIN_TIMEOUT_S", 30.0)
        job.join()
        assert job.status()["state"] == "completed"
        assert sorted(executed) == sorted(
            run.run_id for run in spec.resolve() if run.run_id not in finished)
        # the rewritten spec file loads on the next restart
        (reloaded,) = CampaignJobManager(str(store_dir)).jobs()
        assert (reloaded.id, reloaded.state) == (campaign_id, "completed")

    def test_a_spec_file_naming_a_sampler_or_driver_is_skipped(
            self, tmp_path, caplog):
        """Spec files written when a spec named its sampler, driver and
        cache directory no longer load on restart; the store beside one
        keeps its records."""
        spec = small_spec(name="twelve-fields")
        store_dir = tmp_path / "svc"
        store_dir.mkdir()
        old_id = "twelve-fields-0123456789"
        store = CampaignStore(str(store_dir / f"{old_id}.campaign.jsonl"))
        run_campaign(spec, store, worker=fake_worker)
        with open(store_dir / f"{old_id}.spec.json", "w",
                  encoding="utf-8") as handle:
            json.dump(dict(spec.to_dict(), sampler="grid", explicit=[],
                           n_samples=8, driver="serial", cache_dir=None),
                      handle)
        with caplog.at_level("WARNING", logger="repro.service.jobs"):
            manager = CampaignJobManager(str(store_dir))
        assert manager.jobs() == []
        assert f"skipping unloadable campaign {old_id}" in caplog.text
        assert ("unknown CampaignSpec keys ['cache_dir', 'driver', "
                "'explicit', 'n_samples', 'sampler']") in caplog.text
        assert store.completed_run_ids() == {
            run.run_id for run in spec.resolve()}


    def test_a_spec_write_that_fails_part_way_keeps_the_campaign_listed(
            self, tmp_path, monkeypatch):
        """A failure in the middle of rewriting ``<id>.spec.json`` leaves
        the previous file whole and no temp file beside it, so a restarted
        manager still lists the campaign."""
        spec = small_spec(name="torn-spec")
        store_dir = tmp_path / "svc"
        job, _, _ = CampaignJobManager(str(store_dir),
                                       worker=fake_worker).submit(spec, {})
        monkeypatch.setattr(jobs, "JOIN_TIMEOUT_S", 30.0)
        job.join()
        spec_path = store_dir / f"{job.id}.spec.json"
        saved = spec_path.read_text()
        with monkeypatch.context() as patch:
            # json.dump has written the name when the next key fails
            patch.setattr(CampaignSpec, "to_dict",
                          lambda self: {"name": self.name, "torn": object()})
            with pytest.raises(TypeError):
                spec.to_file(str(spec_path))
        assert spec_path.read_text() == saved
        assert [name for name in os.listdir(store_dir)
                if name.endswith(".tmp")] == []
        (reloaded,) = CampaignJobManager(str(store_dir)).jobs()
        assert (reloaded.id, reloaded.state) == (job.id, "completed")


class TestErrorPaths:
    def test_unknown_campaign_routes_are_404(self, tmp_path):
        with service(tmp_path) as (client, _):
            for call in (client.status, client.report):
                with pytest.raises(ServiceError) as excinfo:
                    call("nope")
                assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                list(client.events("nope"))
            assert excinfo.value.status == 404

    def test_bad_submissions_are_400(self, tmp_path):
        with service(tmp_path) as (client, _):
            cases = [
                {},                                          # neither
                {"preset": "campaign-smoke",
                 "spec": small_spec().to_dict()},            # both
                {"preset": "campaign-smoke", "bogus": 1},    # unknown key
                {"preset": "no-such-preset"},
                {"preset": "campaign-smoke", "executor": "no-such-executor"},
                # a pool width that is not a positive integer
                {"preset": "campaign-smoke", "executor": "workers",
                 "max_workers": "2"},
                {"preset": "campaign-smoke", "executor": "workers",
                 "max_workers": 1.5},
            ]
            for body in cases:
                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", "/v1/campaigns", body)
                assert excinfo.value.status == 400, body

    def test_launch_options_no_executor_takes_are_400(self, tmp_path):
        """The removed ``retries``/``timeout`` keys are refused with the
        valid ones named; ``max_workers`` without the worker pool too."""
        keys = "valid keys: cache_dir, executor, max_workers, preset, spec$"
        cases = [({"retries": 1}, r"unknown submission keys \['retries'\]; "
                  + keys),
                 ({"timeout": 5.0}, r"unknown submission keys \['timeout'\]; "
                  + keys),
                 ({"max_workers": 2}, "max_workers sizes the worker pool; "
                  "it needs executor 'workers'$")]
        with service(tmp_path) as (client, _):
            for options, message in cases:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(preset="campaign-smoke", **options)
                assert excinfo.value.status == 400, options
                assert re.search(message, excinfo.value.message), \
                    excinfo.value.message
            assert client.list_campaigns() == []

    @pytest.mark.parametrize("spec, message", [
        (5, "CampaignSpec must be a JSON object, got int 5"),
        (True, "CampaignSpec must be a JSON object, got bool True"),
        ({"base_config": {"khi": 5}},
         "KHIConfig must be a JSON object, got int 5"),
        ({"routing": {}}, r"unknown CampaignSpec keys \['routing'\]"),
        ({"sampler": "random"}, r"unknown CampaignSpec keys \['sampler'\]; "
         r"valid keys: base_config, base_preset, n_steps, name, parameters, "
         r"repetitions, seed$"),
        ({"parameters": {"streaming.queue_limit": [0]}},
         "queue_limit must be an integer >= 1"),
    ])
    def test_a_malformed_spec_is_a_400_with_the_reason(self, tmp_path, spec,
                                                       message):
        """Outside input that is not a runnable spec answers 400 on the wire
        instead of dropping the connection on a server-side traceback."""
        with service(tmp_path) as (client, _):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/campaigns", {"spec": spec})
            assert excinfo.value.status == 400
            assert re.search(message, excinfo.value.message)
            assert client.health()["status"] == "ok"

    def test_unrouted_paths_are_404(self, tmp_path):
        with service(tmp_path) as (client, _):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/v1/nope")
            assert excinfo.value.status == 404


class TestParseSubmission:
    def test_spec_and_options_split(self):
        spec, options = parse_submission(
            {"spec": small_spec().to_dict(), "max_workers": 2,
             "executor": "workers"})
        assert spec.name == "svc-test"
        assert options == {"max_workers": 2, "executor": "workers"}

    def test_preset_resolves(self):
        spec, options = parse_submission({"preset": "campaign-smoke"})
        assert spec.name == "campaign-smoke"
        assert options == {}

    @pytest.mark.parametrize("body", [
        [], "nope", {}, {"preset": "p", "spec": {}}, {"what": 1},
    ])
    def test_invalid_bodies_raise(self, body):
        with pytest.raises(ValueError):
            parse_submission(body)
