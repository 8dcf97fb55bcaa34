"""Tests of the in-process RunEventBus (fan-out, bounds, drops) and of
the job-side snapshot that makes a late subscriber's replay exactly once."""

from __future__ import annotations

import threading
import time

import pytest
from sse_helpers import subscriber_count

from repro.campaign import CampaignStore, get_campaign_preset
from repro.campaign.store import RunRecord
from repro.service import bus as bus_module
from repro.service.bus import RunEventBus
from repro.service.jobs import STATE_RUNNING, CampaignJob


@pytest.fixture(autouse=True)
def short_keepalive(monkeypatch):
    """A subscriber with nothing queued gives up after 50 ms."""
    monkeypatch.setattr(bus_module, "KEEPALIVE_S", 0.05)


class TestPublishSubscribe:
    def test_subscriber_receives_published_events_in_order(self):
        bus = RunEventBus()
        sub = bus.subscribe("c1")
        for index in range(3):
            bus.publish("c1", "run", {"index": index})
        got = [sub.get() for _ in range(3)]
        assert [event.data["index"] for event in got] == [0, 1, 2]
        assert [event.seq for event in got] == [1, 2, 3]

    def test_topics_are_isolated(self):
        bus = RunEventBus()
        sub_a = bus.subscribe("a")
        sub_b = bus.subscribe("b")
        bus.publish("a", "run", {"topic": "a"})
        assert sub_a.get().data == {"topic": "a"}
        assert sub_b.get() is None

    def test_fan_out_reaches_every_subscriber(self):
        bus = RunEventBus()
        subs = [bus.subscribe("c") for _ in range(3)]
        event = bus.publish("c", "run", {"n": 1})
        assert all(sub.get().seq == event.seq for sub in subs)

    def test_a_silent_subscriber_waits_out_the_keepalive(self):
        bus = RunEventBus()
        sub = bus.subscribe("silent")
        start = time.monotonic()
        assert sub.get() is None
        assert time.monotonic() - start >= bus_module.KEEPALIVE_S

    def test_unsubscribe_stops_delivery_and_is_idempotent(self):
        bus = RunEventBus()
        sub = bus.subscribe("c")
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)
        bus.publish("c", "run", {})
        assert sub.get() is None
        assert subscriber_count(bus, "c") == 0

    def test_publish_never_blocks_without_subscribers(self, monkeypatch):
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 1)
        bus = RunEventBus()
        events = [bus.publish("quiet", "run", {"index": index})
                  for index in range(100)]
        assert [event.seq for event in events] == list(range(1, 101))
        assert bus.topic_stats("quiet") == {"events": 100, "subscribers": 0,
                                            "dropped": 0}


class TestSlowSubscriberDropPolicy:
    def test_full_queue_drops_new_events_and_counts_them(self, monkeypatch):
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 2)
        bus = RunEventBus()
        slow = bus.subscribe("c")
        for index in range(10):
            bus.publish("c", "run", {"index": index})
        # the first two made it; the other eight were dropped for this
        # subscriber only
        assert [slow.get().data["index"] for _ in range(2)] == [0, 1]
        assert slow.take_dropped() == 8
        assert slow.take_dropped() == 0
        assert bus.topic_stats("c") == {"events": 10, "subscribers": 1,
                                        "dropped": 8}

    def test_a_slow_subscriber_does_not_starve_its_peers(self, monkeypatch):
        bus = RunEventBus()
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 1)
        slow = bus.subscribe("c")
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 64)
        fast = bus.subscribe("c")
        for index in range(20):
            bus.publish("c", "run", {"index": index})
        received = [fast.get().data["index"] for _ in range(20)]
        assert received == list(range(20))
        assert slow.take_dropped() == 19


class TestJobSubscribe:
    def test_snapshot_plus_live_sees_every_record_exactly_once(
            self, tmp_path, monkeypatch):
        """The exactly-once guarantee: while a launch publishes records,
        every watcher that joins finds each of them either in the snapshot
        :meth:`CampaignJob.subscribe` returns or in its queue — never both,
        never neither."""
        total = 300
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", total)
        spec = get_campaign_preset("campaign-smoke")
        job = CampaignJob("c", spec, CampaignStore(str(tmp_path / "c.jsonl")),
                          RunEventBus(), {})
        job.state = STATE_RUNNING        # as its launch thread would set it
        records = [RunRecord(run_id=f"r{index:03d}", index=index, params={},
                             driver="serial", n_steps=1, status="completed")
                   for index in range(total)]
        started = threading.Event()

        def publisher():
            started.set()
            for record in records:
                job._publish(record)

        thread = threading.Thread(target=publisher)
        thread.start()
        started.wait()
        watchers = [job.subscribe() for _ in range(4)]
        thread.join()
        for snapshot, ended, subscription in watchers:
            assert not ended
            seen = [payload["run_id"] for payload in snapshot]
            while True:
                event = subscription.get()
                if event is None:
                    break
                seen.append(event.data["run_id"])
            assert seen == [record.run_id for record in records]
