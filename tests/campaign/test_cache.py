"""Tests of the content-addressed per-run result cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (CampaignStore, ResultCache, RunRecord, aggregate,
                            run_campaign)
from repro.campaign.store import STATUS_COMPLETED, STATUS_FAILED

from tests.campaign.test_scheduler_store import (cached_entries, fake_worker,
                                                 smoke_spec)


def refusing_worker(payload):
    """A worker that must never be called (proves runs were cache-served)."""
    raise AssertionError(f"run {payload['run_id']} was executed, not cached")


def completed_record(run_id="a", **kwargs) -> RunRecord:
    fields = dict(run_id=run_id, index=0, params={}, driver="serial",
                  n_steps=2, status=STATUS_COMPLETED, elapsed_s=1.5,
                  summary={"final_total_loss": 2.5})
    fields.update(kwargs)
    return RunRecord(**fields)


class TestResultCache:
    def test_get_on_empty_cache_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get("deadbeef") is None
        assert cache.stats() == {"hits": 0, "misses": 1}
        assert cached_entries(cache) == 0

    def test_put_get_roundtrip_marks_provenance(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        record = completed_record()
        assert cache.put(record) is True
        assert cached_entries(cache) == 1
        hit = cache.get("a")
        assert hit.cached is True
        assert hit.summary == record.summary
        assert hit.elapsed_s == record.elapsed_s
        assert cache.stats() == {"hits": 1, "misses": 0}
        # the record itself was not mutated, and the disk entry stays
        # provenance-free so every lookup stamps its own copy
        assert record.cached is False
        on_disk = json.load(open(cache.entry_path("a"), encoding="utf-8"))
        assert on_disk["cached"] is False

    def test_failed_records_are_refused(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        failed = completed_record(status=STATUS_FAILED, error="boom",
                                  summary={})
        assert cache.put(failed) is False
        assert cache.get("a") is None

    def test_cache_served_records_are_not_rewritten(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(completed_record())
        hit = cache.get("a")
        before = os.stat(cache.entry_path("a")).st_mtime_ns
        assert cache.put(hit) is False
        assert os.stat(cache.entry_path("a")).st_mtime_ns == before

    def test_corrupt_entry_is_a_warned_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(completed_record())
        with open(cache.entry_path("a"), "w", encoding="utf-8") as handle:
            handle.write('{"run_id": "a", "ind')
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            assert cache.get("a") is None
        assert cache.misses == 1

    def test_foreign_or_mismatched_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        path = cache.entry_path("a")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # valid JSON, but not a completed record of run "a"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(completed_record(run_id="zz").to_dict(), handle)
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            assert cache.get("a") is None

    def test_entries_fan_out_over_prefix_directories(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(completed_record(run_id="abcd1234"))
        assert os.path.exists(
            os.path.join(str(tmp_path / "cache"), "ab", "abcd1234.json"))


class TestCachedCampaigns:
    def test_warm_cache_serves_every_run_without_executing(self, tmp_path):
        """The acceptance criterion: a second run against a warm cache
        reports 100% cache hits and executes zero runs."""
        spec = smoke_spec()
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_campaign(spec, CampaignStore(str(tmp_path / "a.jsonl")),
                             worker=fake_worker, cache=cache)
        assert first.executed == 8 and first.cache_hits == 0
        assert cached_entries(cache) == 8

        second = run_campaign(spec, CampaignStore(str(tmp_path / "b.jsonl")),
                              worker=refusing_worker, cache=cache)
        assert second.cache_hits == 8
        assert second.executed == 0
        assert second.completed == 8 and second.done
        assert all(record.cached for record in second.records)

    def test_cached_and_direct_campaigns_aggregate_identically(self, tmp_path):
        spec = smoke_spec()
        cache = ResultCache(str(tmp_path / "cache"))
        direct = CampaignStore(str(tmp_path / "direct.jsonl"))
        run_campaign(spec, direct, worker=fake_worker, cache=cache)
        served = CampaignStore(str(tmp_path / "served.jsonl"))
        run_campaign(spec, served, worker=refusing_worker, cache=cache)
        direct_report = aggregate(direct.records(), spec.name)
        served_report = aggregate(served.records(), spec.name)
        assert served_report.deterministic_dict() == \
            direct_report.deterministic_dict()
        assert direct_report.n_cached == 0
        assert served_report.n_cached == 8

    def test_cross_campaign_reuse(self, tmp_path):
        """The cache is keyed by resolved-run content: a differently-named
        campaign resolving the same runs reuses the results."""
        cache = ResultCache(str(tmp_path / "cache"))
        original = smoke_spec(name="study-a")
        run_campaign(original, CampaignStore(str(tmp_path / "a.jsonl")),
                     worker=fake_worker, cache=cache)
        renamed = smoke_spec(name="study-b")
        outcome = run_campaign(renamed,
                               CampaignStore(str(tmp_path / "b.jsonl")),
                               worker=refusing_worker, cache=cache)
        assert outcome.cache_hits == 8 and outcome.executed == 0
        assert outcome.campaign == "study-b"

    def test_corrupt_entry_falls_back_to_recompute_and_repairs(self, tmp_path):
        spec = smoke_spec(repetitions=1)   # 2 runs
        cache = ResultCache(str(tmp_path / "cache"))
        run_campaign(spec, CampaignStore(str(tmp_path / "a.jsonl")),
                     worker=fake_worker, cache=cache)
        victim = spec.resolve()[0].run_id
        with open(cache.entry_path(victim), "w", encoding="utf-8") as handle:
            handle.write("not json at all")

        executed = []

        def counting_worker(payload):
            executed.append(payload["run_id"])
            return fake_worker(payload)

        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            outcome = run_campaign(
                spec, CampaignStore(str(tmp_path / "b.jsonl")),
                worker=counting_worker, cache=cache)
        assert executed == [victim]
        assert outcome.cache_hits == 1 and outcome.executed == 1
        assert outcome.completed == 2
        # the recompute repaired the entry: a third launch is all hits
        third = run_campaign(spec, CampaignStore(str(tmp_path / "c.jsonl")),
                             worker=refusing_worker, cache=cache)
        assert third.cache_hits == 2

    def test_failed_runs_are_not_cached_and_retry(self, tmp_path):
        spec = smoke_spec(repetitions=1)
        cache = ResultCache(str(tmp_path / "cache"))

        def bad(payload):
            raise RuntimeError("first launch fails")

        first = run_campaign(spec, CampaignStore(str(tmp_path / "a.jsonl")),
                             worker=bad, cache=cache)
        assert first.failed == 2 and cached_entries(cache) == 0
        second = run_campaign(spec, CampaignStore(str(tmp_path / "b.jsonl")),
                              worker=fake_worker, cache=cache)
        assert second.executed == 2 and second.completed == 2
        assert cached_entries(cache) == 2

    def test_cached_records_resume_through_the_store_too(self, tmp_path):
        """Cache-served records land in the store, so a later launch of the
        same store resumes even without the cache."""
        spec = smoke_spec()
        cache = ResultCache(str(tmp_path / "cache"))
        run_campaign(spec, CampaignStore(str(tmp_path / "a.jsonl")),
                     worker=fake_worker, cache=cache)
        store = CampaignStore(str(tmp_path / "b.jsonl"))
        run_campaign(spec, store, worker=refusing_worker, cache=cache)
        # no cache handed in this time: the store alone must skip all runs
        resumed = run_campaign(spec, store, worker=refusing_worker)
        assert resumed.skipped == 8 and resumed.executed == 0

    def test_cache_hits_rekey_to_the_requesting_campaign(self, tmp_path):
        """A hit from another campaign carries this campaign's index/params."""
        cache = ResultCache(str(tmp_path / "cache"))
        spec = smoke_spec()
        run_campaign(spec, CampaignStore(str(tmp_path / "a.jsonl")),
                     worker=fake_worker, cache=cache)
        # a one-point grid naming one of the smoke runs' configs directly
        one_run = spec.resolve()[3]
        single = smoke_spec(
            name="single", repetitions=1,
            parameters={key: [value] for key, value in dict(
                one_run.params, **{"khi.seed": one_run.config["khi"]["seed"],
                                   "seed": one_run.config["seed"]}).items()})
        resolved = single.resolve()
        assert [r.run_id for r in resolved] == [one_run.run_id]
        outcome = run_campaign(single,
                               CampaignStore(str(tmp_path / "b.jsonl")),
                               worker=refusing_worker, cache=cache)
        assert outcome.cache_hits == 1
        record = outcome.records[0]
        assert record.index == resolved[0].index == 0
        assert record.params == resolved[0].params


#: A store row, byte for byte as a launch wrote it while a spec could still
#: name its driver: the first ``campaign-smoke`` run, executed for real.
PINNED_ROW = (
    '{"attempts": 1, "cached": false, "driver": "serial", "elapsed_s": '
    '0.022669524998491397, "error": null, "index": 0, "n_steps": 2, '
    '"params": {"ml.base_learning_rate": 0.001}, "run_id": '
    '"5ef38b78210e5b49", "status": "completed", "summary": {"driver": '
    '"serial", "final_total_loss": 698.0555435733977, '
    '"iterations_streamed": 2, "max_queue_depth": 1, "ok": true, '
    '"samples_streamed": 8, "simulation_time_s": 0.009, "steps": 2, '
    '"streamed_megabytes": 0.06, "training_iterations": 2, '
    '"training_time_s": 0.008, "wall_time_s": 0.017}}')


class TestRowsWrittenBeforeTheSpecShrank:
    """Stores and caches written when a spec named its driver resume and
    replay: run ids still hash ``"driver": "serial"`` and the row schema
    still carries the column."""

    @staticmethod
    def one_run():
        return smoke_spec(name="pinned-row", repetitions=1,
                          parameters={"ml.base_learning_rate": [1e-3]})

    def test_the_row_resolves_to_the_same_run(self):
        (run,) = self.one_run().resolve()
        row = json.loads(PINNED_ROW)
        assert (run.run_id, run.index, run.params, run.n_steps) == (
            row["run_id"], row["index"], row["params"], row["n_steps"])

    def test_a_pinned_store_row_counts_as_completed(self, tmp_path):
        path = tmp_path / "pinned.campaign.jsonl"
        path.write_text(PINNED_ROW + "\n", encoding="utf-8")
        store = CampaignStore(str(path))
        assert store.completed_run_ids() == {"5ef38b78210e5b49"}
        outcome = run_campaign(self.one_run(), store, worker=refusing_worker)
        assert (outcome.skipped, outcome.executed, outcome.done) == \
            (1, 0, True)

    def test_a_pinned_cache_entry_replays(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        os.makedirs(os.path.dirname(cache.entry_path("5ef38b78210e5b49")))
        with open(cache.entry_path("5ef38b78210e5b49"), "w",
                  encoding="utf-8") as handle:
            handle.write(PINNED_ROW)
        store = CampaignStore(str(tmp_path / "replay.campaign.jsonl"))
        outcome = run_campaign(self.one_run(), store, worker=refusing_worker,
                               cache=cache)
        assert (outcome.cache_hits, outcome.executed, outcome.done) == \
            (1, 0, True)
        (record,) = store.records()
        assert record.cached and record.driver == "serial"
        assert record.summary == json.loads(PINNED_ROW)["summary"]
