"""Tests of the content-addressed per-run result cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (CampaignStore, ResultCache, RunRecord, aggregate,
                            run_campaign)
from repro.campaign.store import STATUS_COMPLETED, STATUS_FAILED

from tests.campaign.test_scheduler_store import fake_worker, smoke_spec


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
        assert len(cache) == 0

    def test_put_get_roundtrip_marks_provenance(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        record = completed_record()
        assert cache.put(record) is True
        assert len(cache) == 1
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
        assert len(cache) == 8

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
        assert first.failed == 2 and len(cache) == 0
        second = run_campaign(spec, CampaignStore(str(tmp_path / "b.jsonl")),
                              worker=fake_worker, cache=cache)
        assert second.executed == 2 and second.completed == 2
        assert len(cache) == 2

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
        # an explicit spec naming one of the smoke runs' configs directly
        one_run = spec.resolve()[3]
        explicit = smoke_spec(
            name="single", sampler="explicit", parameters={},
            repetitions=1,
            explicit=[dict(one_run.params,
                           **{"khi.seed": one_run.config["khi"]["seed"],
                              "seed": one_run.config["seed"]})])
        resolved = explicit.resolve()
        assert [r.run_id for r in resolved] == [one_run.run_id]
        outcome = run_campaign(explicit,
                               CampaignStore(str(tmp_path / "b.jsonl")),
                               worker=refusing_worker, cache=cache)
        assert outcome.cache_hits == 1
        record = outcome.records[0]
        assert record.index == resolved[0].index == 0
        assert record.params == resolved[0].params
