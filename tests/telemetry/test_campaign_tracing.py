"""End-to-end tracing + metrics across the campaign layer.

Worker pools use ``start_method="fork"`` for the same reason the
``tests/campaign/test_workers.py`` suite does: the test module is not an
importable package, so spawn-started children could not unpickle the
worker functions below — and fork keeps the suite fast.  Cross-process
span propagation is identical either way: the context rides the payload,
the finished spans ride the pickled record.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import pytest

from repro.campaign import (CampaignSpec, CampaignStore, ResultCache,
                            WorkerPool, WorkerPoolExecutor,
                            get_campaign_preset, run_campaign)
from repro.telemetry import REGISTRY, disabled, read_spans, trace_path_for

from tests.telemetry.test_metrics import observed, value


def smoke_spec(**kwargs) -> CampaignSpec:
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


def fake_worker(payload):
    """Deterministic stand-in for a coupled run."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


def crash_once_worker(payload):
    """Kills its host worker the FIRST time each run executes (marker files)."""
    marker = os.path.join(payload["config"]["marker_dir"], payload["run_id"])
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return fake_worker(payload)
    os.close(handle)
    os._exit(17)


def runs_with_config(spec, **extra):
    """The spec's resolved runs with extra keys merged into their configs."""
    return [replace(run, config=dict(run.config, **extra))
            for run in spec.resolve()]


def spans_of(store):
    return read_spans(trace_path_for(store.path))


def by_name(spans, name):
    return [s for s in spans if s.name == name]


def assert_complete_trees(spans, records):
    """Every record has dispatch -> execute -> settle with matching run ids."""
    (root,) = by_name(spans, "campaign")
    assert root.parent_id is None
    assert all(s.trace_id == root.trace_id for s in spans)
    (resolve,) = by_name(spans, "resolve")
    assert resolve.parent_id == root.span_id
    dispatches = {s.attrs["run_id"]: s for s in by_name(spans, "dispatch")}
    executes = {s.attrs["run_id"]: s for s in by_name(spans, "execute")}
    settles = {s.attrs["run_id"]: s for s in by_name(spans, "settle")}
    for record in records:
        dispatch = dispatches[record.run_id]
        assert dispatch.parent_id == root.span_id
        assert executes[record.run_id].parent_id == dispatch.span_id
        assert settles[record.run_id].parent_id == dispatch.span_id
        assert settles[record.run_id].attrs["status"] == record.status
    assert all(s.end_s is not None for s in spans)


class TestSerialTracing:
    def test_launch_writes_one_complete_tree_per_run(self, tmp_path):
        spec = smoke_spec(name="trace-serial")
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        outcome = run_campaign(spec, store, worker=fake_worker)
        assert outcome.completed == outcome.total_runs == 8
        spans = spans_of(store)
        assert_complete_trees(spans, list(store.records()))
        assert len(by_name(spans, "settle")) == 8
        # the root carries the launch summary
        (root,) = by_name(spans, "campaign")
        assert root.attrs["completed"] == 8
        assert root.attrs["executor"] == "serial"

    def test_spans_never_leak_into_the_store(self, tmp_path):
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        run_campaign(smoke_spec(name="trace-clean"), store,
                     worker=fake_worker)
        for record in store.records():
            assert "_spans" not in record.__dict__
        # the store file itself contains no span rows either
        with open(store.path, encoding="utf-8") as handle:
            assert "trace_id" not in handle.read()

    def test_a_torn_tail_does_not_swallow_the_next_launchs_first_span(
            self, tmp_path):
        """A launch killed mid-write leaves a partial line; the next launch
        starts a fresh line, so its ``resolve`` span reads back."""
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        with open(trace_path_for(store.path), "w", encoding="utf-8") as handle:
            handle.write('{"name": "campaign", "trace_id": "ab')
        run_campaign(smoke_spec(name="trace-torn"), store, worker=fake_worker,
                     max_runs=1)
        spans = spans_of(store)
        assert len(by_name(spans, "resolve")) == 1
        assert len(by_name(spans, "settle")) == 1

    def test_disabled_leaves_no_trace_and_counts_nothing(self, tmp_path):
        spec = smoke_spec(name="trace-disabled-unique")
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        with disabled():
            outcome = run_campaign(spec, store, worker=fake_worker)
        assert outcome.completed == 8
        assert not os.path.exists(trace_path_for(store.path))
        runs_total = REGISTRY.counter("repro_campaign_runs_total")
        assert value(runs_total, campaign=spec.name, status="completed",
                                cached="false") == 0

    def test_cache_hits_settle_directly_under_the_root(self, tmp_path):
        spec = smoke_spec(name="trace-cache")
        cache = ResultCache(tmp_path / "cache")
        first = CampaignStore(tmp_path / "a.campaign.jsonl")
        run_campaign(spec, first, worker=fake_worker, cache=cache)
        second = CampaignStore(tmp_path / "b.campaign.jsonl")
        outcome = run_campaign(spec, second, worker=fake_worker, cache=cache)
        assert outcome.cache_hits == 8 and outcome.executed == 0
        spans = spans_of(second)
        (root,) = by_name(spans, "campaign")
        settles = by_name(spans, "settle")
        assert len(settles) == 8
        assert all(s.parent_id == root.span_id for s in settles)
        assert all(s.attrs["cached"] for s in settles)
        assert by_name(spans, "dispatch") == []

    def test_a_store_failure_aborts_the_root_and_the_trace_still_renders(
            self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        append, appended = store.append, []

        def append_until_the_disk_fills(record):
            if len(appended) == 2:
                raise OSError(28, "No space left on device")
            append(record)
            appended.append(record)

        store.append = append_until_the_disk_fills
        with pytest.raises(OSError, match="No space left"):
            run_campaign(smoke_spec(name="trace-abort"), store,
                         worker=fake_worker)
        spans = spans_of(store)
        (root,) = by_name(spans, "campaign")
        assert root.status == "error" and root.attrs["aborted"] is True
        assert len(by_name(spans, "settle")) == 2
        assert cli_main(["trace", store.path]) == 0
        rendered = capsys.readouterr().out
        assert "campaign !" in rendered           # the errored root is marked
        assert rendered.count("settle") == 2


@pytest.mark.parametrize("driver", ["serial", "pipelined"])
def test_real_runs_trace_their_sections_under_execute(tmp_path, driver):
    """Each run's workflow sections hang off its execute span, the layers'
    sections off those, and the spans add up to the record's times.

    Nesting is what both drivers guarantee: every ``pic.*`` section lies
    inside its ``workflow.pic`` span and together they fill at most that
    span.  That they fill it to within 5 % holds on the serial driver only:
    under the pipelined one a thread switch between two sections is time
    in ``workflow.pic`` that no section holds."""
    spec = smoke_spec(name=f"trace-sections-{driver}", driver=driver)
    store = CampaignStore(tmp_path / "t.campaign.jsonl")
    assert run_campaign(spec, store).completed == 8
    spans = spans_of(store)
    by_id = {s.span_id: s for s in spans}
    edges, seconds = set(), {}
    for s in spans:
        execute = by_id.get(s.parent_id)
        if execute is None:
            continue
        edges.add((execute.name, s.name))
        while execute is not None and execute.name != "execute":
            execute = by_id.get(execute.parent_id)
        if execute is not None:
            key = (execute.attrs["run_id"],
                   "pic.*" if s.name.startswith("pic.") else s.name)
            seconds[key] = seconds.get(key, 0.0) + s.duration_s
    layers = {"gather", "push", "deposit", "fields", "plugins"}
    assert {("execute", "workflow.pic"), ("execute", "workflow.mlapp"),
            ("workflow.mlapp", "core.decode"), ("workflow.mlapp", "core.train"),
            ("core.train", "continual.forward"),
            ("core.train", "continual.backward")} <= edges
    assert {name for parent, name in edges if parent == "workflow.pic"} == \
        {f"pic.{layer}" for layer in layers}
    assert {parent for parent, name in edges if name.startswith("pic.")} == \
        {"workflow.pic"}
    filled = {}
    for s in spans:
        if s.name.startswith("pic."):
            outer = by_id[s.parent_id]
            assert outer.start_s <= s.start_s and s.end_s <= outer.end_s
            filled[outer.span_id] = filled.get(outer.span_id, 0.0) + s.duration_s
    assert filled and all(total <= by_id[span_id].duration_s + 1e-6
                          for span_id, total in filled.items())
    for record in store.records():
        pic = seconds[(record.run_id, "workflow.pic")]
        if driver == "serial":
            assert seconds[(record.run_id, "pic.*")] == pytest.approx(pic,
                                                                      rel=0.05)
        assert pic == pytest.approx(record.summary["simulation_time_s"],
                                    abs=1e-3)


class TestWorkerPoolTracing:
    def test_execute_spans_come_back_from_worker_processes(self, tmp_path,
                                                           fast_heartbeat):
        spec = smoke_spec(name="trace-pool")
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        pool = WorkerPool(2, start_method="fork")
        try:
            executor = WorkerPoolExecutor(max_workers=2, pool=pool)
            outcome = run_campaign(spec, store, executor, worker=fake_worker)
        finally:
            pool.shutdown()
        assert outcome.completed == 8
        spans = spans_of(store)
        assert_complete_trees(spans, list(store.records()))
        parent_pid = os.getpid()
        executes = by_name(spans, "execute")
        assert len(executes) == 8
        assert all(s.attrs["pid"] != parent_pid for s in executes)
        # each dispatch says where its run went and how long it waited there
        dispatches = by_name(spans, "dispatch")
        assert {s.attrs["worker"] for s in dispatches} == {0, 1}
        assert all(0.0 <= s.attrs["queued_ms"] <= 1e3 * s.duration_s
                   for s in dispatches)
        for record in store.records():
            assert "_placement" not in record.__dict__

    def test_a_stopped_launch_traces_only_the_runs_it_started(self, tmp_path):
        spec = smoke_spec(name="trace-stopped")
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        seen = []
        outcome = run_campaign(spec, store, worker=fake_worker,
                               on_record=seen.append,
                               should_stop=lambda: len(seen) >= 3)
        assert outcome.executed == 3 and outcome.deferred == 5
        spans = spans_of(store)
        assert_complete_trees(spans, list(store.records()))
        assert len(by_name(spans, "dispatch")) == 3
        (root,) = by_name(spans, "campaign")
        assert root.attrs["deferred"] == 5 and root.status == "ok"

    def test_crash_requeue_settles_each_run_exactly_once(self, tmp_path,
                                                         fast_heartbeat):
        spec = smoke_spec(name="trace-crash")
        runs = runs_with_config(spec, marker_dir=str(tmp_path))
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        pool = WorkerPool(2, start_method="fork")
        try:
            executor = WorkerPoolExecutor(max_workers=2, pool=pool)
            outcome = run_campaign(spec, store, executor,
                                   worker=crash_once_worker, runs=runs)
        finally:
            pool.shutdown()
        assert outcome.completed == 8
        spans = spans_of(store)
        settles = by_name(spans, "settle")
        assert sorted(s.attrs["run_id"] for s in settles) == \
            sorted(r.run_id for r in runs)
        assert_complete_trees(spans, list(store.records()))
        events = REGISTRY.counter("repro_worker_pool_events_total")
        assert value(events, event="requeued_runs") >= 8


class TestMetricsUnderConcurrency:
    def test_two_thread_executor_launches_count_independently(
            self, tmp_path, fast_heartbeat):
        specs = [smoke_spec(name=f"trace-conc-{index}") for index in (0, 1)]
        stores = [CampaignStore(tmp_path / f"{index}.campaign.jsonl")
                  for index in (0, 1)]
        errors = []
        # two campaigns leasing one warm pool at once, as two service
        # campaigns do: their records settle concurrently
        pool = WorkerPool(2, start_method="fork")

        def launch(spec, store):
            try:
                run_campaign(spec, store,
                             WorkerPoolExecutor(max_workers=2, pool=pool),
                             worker=fake_worker)
            except BaseException as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=launch, args=(spec, store))
                   for spec, store in zip(specs, stores)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            pool.shutdown()
        assert errors == []
        runs_total = REGISTRY.counter("repro_campaign_runs_total")
        for spec in specs:
            assert value(runs_total, campaign=spec.name, status="completed",
                                    cached="false") == 8
        seconds = REGISTRY.histogram("repro_campaign_run_seconds", "")
        for spec in specs:
            assert observed(seconds, campaign=spec.name)[0] == 8
        # each launch wrote its own complete trace despite sharing the pool
        for spec, store in zip(specs, stores):
            spans = spans_of(store)
            assert_complete_trees(spans, list(store.records()))
