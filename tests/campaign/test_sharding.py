"""Tests of the sharded campaign executor and its workload routers."""

from __future__ import annotations

import threading

import pytest

from repro.campaign import (CampaignStore, ExplicitRouter, HashRouter,
                            RoundRobinRouter, ShardedExecutor, WorkloadRouter,
                            aggregate, available_routers, get_campaign_preset,
                            get_executor, get_router, register_router,
                            run_campaign, stable_shard_hash)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import STATUS_COMPLETED, STATUS_FAILED

from tests.campaign.test_scheduler_store import fake_worker, smoke_spec


def smoke_payloads(**kwargs):
    return [run.payload() for run in smoke_spec(**kwargs).resolve()]


class TestRouters:
    def test_registry(self):
        assert available_routers() == ("explicit", "hash", "round-robin")
        with pytest.raises(ValueError, match="valid routes"):
            get_router("teleport")

    def test_register_router(self):
        class EvenOdd(WorkloadRouter):
            name = "even-odd"

            def shard_of(self, payload, position, n_shards):
                """Route by payload index parity."""
                return payload["index"] % min(2, n_shards)

        register_router("even-odd", lambda assignments=None: EvenOdd())
        try:
            assert "even-odd" in available_routers()
            with pytest.raises(ValueError, match="already registered"):
                register_router("even-odd", lambda assignments=None: EvenOdd())
            executor = ShardedExecutor(shards=2, route="even-odd")
            buckets = executor.partition(smoke_payloads())
            assert all(p["index"] % 2 == 0 for p in buckets["shard-0"])
            assert all(p["index"] % 2 == 1 for p in buckets["shard-1"])
        finally:
            from repro.campaign.sharding import _ROUTERS
            _ROUTERS.pop("even-odd", None)

    def test_stable_hash_is_deterministic_and_in_range(self):
        for run_id in ("a", "deadbeef", "8a1d29d3b1de51ef"):
            for n in (1, 2, 4, 7):
                shard = stable_shard_hash(run_id, n)
                assert 0 <= shard < n
                assert shard == stable_shard_hash(run_id, n)

    def test_hash_router_ignores_position(self):
        router = HashRouter()
        payload = {"run_id": "8a1d29d3b1de51ef"}
        assert router.shard_of(payload, 0, 4) == router.shard_of(payload, 7, 4)

    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        shards = [router.shard_of({"run_id": "x"}, pos, 3) for pos in range(7)]
        assert shards == [0, 1, 2, 0, 1, 2, 0]

    def test_explicit_assignments_with_hash_fallback(self):
        router = ExplicitRouter({"pinned": 2})
        assert router.shard_of({"run_id": "pinned"}, 0, 4) == 2
        unpinned = router.shard_of({"run_id": "other"}, 0, 4)
        assert unpinned == stable_shard_hash("other", 4)

    def test_explicit_rejects_bad_assignments(self):
        with pytest.raises(ValueError, match="integer shard index"):
            ExplicitRouter({"a": "zero"})
        router = ExplicitRouter({"a": 9})
        with pytest.raises(ValueError, match="outside 0..3"):
            router.shard_of({"run_id": "a"}, 0, 4)


class TestPartition:
    def test_shards_are_disjoint_and_cover_the_campaign(self):
        payloads = smoke_payloads()
        for route in ("hash", "round-robin"):
            executor = ShardedExecutor(shards=3, route=route)
            buckets = executor.partition(payloads)
            assert sorted(buckets) == ["shard-0", "shard-1", "shard-2"]
            shard_ids = [[p["run_id"] for p in bucket]
                         for bucket in buckets.values()]
            union = [run_id for bucket in shard_ids for run_id in bucket]
            assert sorted(union) == sorted(p["run_id"] for p in payloads)
            assert len(union) == len(set(union))  # disjoint

    def test_routing_is_deterministic_for_a_fixed_seed(self):
        """The same spec resolves and routes identically across launches."""
        first = ShardedExecutor(shards=4).partition(smoke_payloads())
        second = ShardedExecutor(shards=4).partition(smoke_payloads())
        assert {name: [p["run_id"] for p in bucket]
                for name, bucket in first.items()} == \
            {name: [p["run_id"] for p in bucket]
             for name, bucket in second.items()}

    def test_explicit_routing_through_the_spec_roundtrip(self, tmp_path):
        payloads = smoke_payloads()
        pinned = payloads[0]["run_id"]
        spec = smoke_spec(routing={"shards": 2, "route": "explicit",
                                   "assignments": {pinned: 1}})
        path = str(tmp_path / "spec.json")
        spec.to_file(path)
        loaded = CampaignSpec.from_file(path)
        assert loaded.routing == {"shards": 2, "route": "explicit",
                                  "assignments": {pinned: 1}}
        executor = ShardedExecutor(
            shards=loaded.routing["shards"], route=loaded.routing["route"],
            assignments=loaded.routing["assignments"])
        buckets = executor.partition(payloads)
        assert pinned in [p["run_id"] for p in buckets["shard-1"]]

    def test_routing_hints_do_not_change_run_identity(self):
        plain = smoke_spec()
        routed = smoke_spec(routing={"shards": 4}, cache_dir="some/cache")
        assert [r.run_id for r in plain.resolve()] == \
            [r.run_id for r in routed.resolve()]

    def test_spec_rejects_bad_routing(self):
        with pytest.raises(ValueError, match="unknown routing keys"):
            smoke_spec(routing={"shard_count": 4})
        with pytest.raises(ValueError, match="routing.shards"):
            smoke_spec(routing={"shards": 0})
        with pytest.raises(ValueError, match="routing.route"):
            smoke_spec(routing={"route": 3})
        with pytest.raises(ValueError, match="routing.assignments"):
            smoke_spec(routing={"route": "explicit", "assignments": ["a"]})
        # assignments under a non-explicit route would be silently ignored
        with pytest.raises(ValueError, match="route='explicit'"):
            smoke_spec(routing={"assignments": {"a": 0}})
        with pytest.raises(ValueError, match="route='explicit'"):
            smoke_spec(routing={"route": "hash", "assignments": {"a": 0}})
        with pytest.raises(ValueError, match="cache_dir"):
            smoke_spec(cache_dir=7)


class TestShardedExecutor:
    def test_invalid_options(self):
        with pytest.raises(ValueError, match="shards must be"):
            ShardedExecutor(shards=0)
        with pytest.raises(ValueError, match="cannot shard into itself"):
            ShardedExecutor(inner="sharded")
        with pytest.raises(ValueError, match="unknown inner executor"):
            ShardedExecutor(inner="quantum")
        with pytest.raises(ValueError, match="valid routes"):
            ShardedExecutor(route="teleport")
        with pytest.raises(ValueError, match="route='explicit'"):
            ShardedExecutor(route="hash", assignments={"a": 0})

    def test_non_integer_router_output_is_a_clean_error(self):
        """A buggy custom router must surface as ValueError (the CLI's
        clean-exit contract), not a KeyError/TypeError traceback."""
        class Broken(WorkloadRouter):
            name = "broken"

            def shard_of(self, payload, position, n_shards):
                """Return a non-index on purpose."""
                return 1.5

        executor = ShardedExecutor(shards=4)
        executor.router = Broken()
        with pytest.raises(ValueError, match="not an index"):
            executor.partition(smoke_payloads())
        with pytest.raises(ValueError, match="not an index"):
            executor.execute(smoke_payloads(), fake_worker)

    def test_single_shard_equals_serial_baseline(self):
        """The sharding acceptance identity: one shard is the serial run."""
        payloads = smoke_payloads()
        serial = get_executor("serial").execute(payloads, fake_worker)
        sharded = get_executor("sharded", shards=1).execute(payloads,
                                                            fake_worker)
        assert [(r.run_id, r.status, r.summary) for r in sharded] == \
            [(r.run_id, r.status, r.summary) for r in serial]

    @pytest.mark.parametrize("route", ("hash", "round-robin"))
    def test_records_come_back_in_submission_order(self, route):
        payloads = smoke_payloads()
        records = get_executor("sharded", shards=3, route=route).execute(
            payloads, fake_worker)
        assert [r.run_id for r in records] == [p["run_id"] for p in payloads]
        assert all(r.completed for r in records)

    def test_empty_payload_list(self):
        executor = ShardedExecutor(shards=4)
        assert executor.execute([], fake_worker) == []
        assert executor.shard_sizes == {f"shard-{i}": 0 for i in range(4)}

    def test_shard_sizes_reflect_the_partition(self):
        payloads = smoke_payloads()
        executor = ShardedExecutor(shards=3, route="round-robin")
        executor.execute(payloads, fake_worker)
        assert executor.shard_sizes == {"shard-0": 3, "shard-1": 3,
                                        "shard-2": 2}

    def test_exceptions_are_captured_into_records(self):
        def exploding(payload):
            raise RuntimeError("kaboom " + payload["run_id"])

        records = get_executor("sharded", shards=3).execute(
            smoke_payloads(), exploding)
        assert all(r.status == STATUS_FAILED for r in records)
        assert all("kaboom" in r.error for r in records)

    def test_on_record_callbacks_are_serialised(self):
        """Concurrent shards must not interleave the record callback (the
        store append is not reentrant)."""
        active = []
        overlap = []
        lock = threading.Lock()

        def observing(record):
            with lock:
                active.append(record.run_id)
                if len(active) > 1:
                    overlap.append(tuple(active))
            # linger so a racing shard's callback would be observed
            threading.Event().wait(0.005)
            with lock:
                active.remove(record.run_id)

        records = get_executor("sharded", shards=4).execute(
            smoke_payloads(), fake_worker, on_record=observing)
        assert len(records) == 8
        assert overlap == []

    def test_sharded_run_campaign_matches_serial_outcome(self, tmp_path):
        """The acceptance criterion: `--executor sharded --shards 4` on the
        smoke campaign produces the serial CampaignOutcome (same run ids,
        same deterministic metrics)."""
        spec = smoke_spec()
        serial_store = CampaignStore(str(tmp_path / "serial.jsonl"))
        serial = run_campaign(spec, serial_store, get_executor("serial"),
                              worker=fake_worker)
        sharded_store = CampaignStore(str(tmp_path / "sharded.jsonl"))
        sharded = run_campaign(spec, sharded_store,
                               get_executor("sharded", shards=4),
                               worker=fake_worker)
        assert sharded.summary() == serial.summary()
        assert [r.run_id for r in sharded.records] == \
            [r.run_id for r in serial.records]
        assert aggregate(sharded_store.records(), spec.name).deterministic_dict() \
            == aggregate(serial_store.records(), spec.name).deterministic_dict()

    def test_sharded_resume_skips_completed_runs(self, tmp_path):
        spec = smoke_spec()
        store = CampaignStore(str(tmp_path / "resume.jsonl"))
        first = run_campaign(spec, store, get_executor("sharded", shards=4),
                             worker=fake_worker, max_runs=3)
        assert first.executed == 3 and not first.done
        second = run_campaign(spec, store, get_executor("sharded", shards=4),
                              worker=fake_worker)
        assert second.skipped == 3 and second.executed == 5 and second.done

    def test_sharded_smoke_preset_runs_real_workflows(self, tmp_path):
        """The CI sharded smoke path: real coupled runs across 4 shards
        reproduce the serial smoke campaign's deterministic report."""
        from repro.campaign import execute_run

        sharded_spec = get_campaign_preset("campaign-smoke-sharded")
        assert sharded_spec.routing == {"shards": 4, "route": "hash",
                                        "inner": "serial"}
        serial_spec = get_campaign_preset("campaign-smoke")
        assert [r.run_id for r in sharded_spec.resolve()] == \
            [r.run_id for r in serial_spec.resolve()]

        sharded_store = CampaignStore(str(tmp_path / "sharded.jsonl"))
        outcome = run_campaign(
            sharded_spec, sharded_store,
            get_executor("sharded", **sharded_spec.routing),
            worker=execute_run)
        assert outcome.completed == 8, [r.error for r in outcome.records]

        serial_store = CampaignStore(str(tmp_path / "serial.jsonl"))
        run_campaign(serial_spec, serial_store, get_executor("serial"),
                     worker=execute_run)
        sharded_report = aggregate(sharded_store.records(), "smoke")
        serial_report = aggregate(serial_store.records(), "smoke")
        assert sharded_report.deterministic_dict() == \
            serial_report.deterministic_dict()
