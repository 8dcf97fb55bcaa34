"""Tests of the in-process RunEventBus: fan-out, bounds, drops, atomicity."""

from __future__ import annotations

import threading

import pytest
from sse_helpers import subscriber_count

from repro.service.bus import RunEventBus


class TestPublishSubscribe:
    def test_subscriber_receives_published_events_in_order(self):
        bus = RunEventBus()
        history, sub = bus.subscribe("c1")
        assert history == []
        for index in range(3):
            bus.publish("c1", "run", {"index": index})
        got = [sub.get(timeout=1) for _ in range(3)]
        assert [event.data["index"] for event in got] == [0, 1, 2]
        assert [event.seq for event in got] == [1, 2, 3]

    def test_topics_are_isolated(self):
        bus = RunEventBus()
        _, sub_a = bus.subscribe("a")
        _, sub_b = bus.subscribe("b")
        bus.publish("a", "run", {"topic": "a"})
        assert sub_a.get(timeout=1).data == {"topic": "a"}
        assert sub_b.get(timeout=0.05) is None

    def test_fan_out_reaches_every_subscriber(self):
        bus = RunEventBus()
        subs = [bus.subscribe("c")[1] for _ in range(3)]
        event = bus.publish("c", "run", {"n": 1})
        assert all(sub.get(timeout=1).seq == event.seq for sub in subs)

    def test_unsubscribe_stops_delivery_and_is_idempotent(self):
        bus = RunEventBus()
        _, sub = bus.subscribe("c")
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)
        bus.publish("c", "run", {})
        assert sub.get(timeout=0.05) is None
        assert subscriber_count(bus, "c") == 0

    def test_publish_never_blocks_without_subscribers(self):
        bus = RunEventBus(max_queue_size=1)
        for index in range(100):
            bus.publish("quiet", "run", {"index": index})
        assert len(bus.history("quiet")) == 100


class TestSlowSubscriberDropPolicy:
    def test_full_queue_drops_new_events_and_counts_them(self):
        bus = RunEventBus()
        _, slow = bus.subscribe("c", max_queue_size=2)
        for index in range(10):
            bus.publish("c", "run", {"index": index})
        # the first two made it; the other eight were dropped for this
        # subscriber only (history keeps everything)
        assert [slow.get(timeout=1).data["index"] for _ in range(2)] == [0, 1]
        assert slow.dropped == 8
        assert slow.take_dropped() == 8
        assert slow.take_dropped() == 0
        assert len(bus.history("c")) == 10

    def test_a_slow_subscriber_does_not_starve_its_peers(self):
        bus = RunEventBus()
        _, slow = bus.subscribe("c", max_queue_size=1)
        _, fast = bus.subscribe("c", max_queue_size=64)
        for index in range(20):
            bus.publish("c", "run", {"index": index})
        received = [fast.get(timeout=1).data["index"] for _ in range(20)]
        assert received == list(range(20))
        assert slow.dropped == 19

    def test_invalid_queue_sizes_are_rejected(self):
        with pytest.raises(ValueError):
            RunEventBus(max_queue_size=0)
        with pytest.raises(ValueError):
            RunEventBus().subscribe("c", max_queue_size=0)


class TestHistoryAndAtomicity:
    def test_seed_fills_history_without_fanning_out(self):
        bus = RunEventBus()
        _, sub = bus.subscribe("c")
        bus.seed("c", "run", {"replayed": True})
        assert sub.get(timeout=0.05) is None
        assert [event.data for event in bus.history("c")] == [{"replayed": True}]

    def test_subscribe_snapshot_plus_live_sees_every_event_exactly_once(self):
        """The exactly-once guarantee: under concurrent publishing, every
        event lands in either the subscribe-time snapshot or the queue —
        never both, never neither."""
        bus = RunEventBus()
        total = 300
        started = threading.Event()

        def publisher():
            started.set()
            for index in range(total):
                bus.publish("c", "run", {"index": index})

        thread = threading.Thread(target=publisher)
        thread.start()
        started.wait()
        history, sub = bus.subscribe("c", max_queue_size=total)
        thread.join()
        seen = [event.data["index"] for event in history]
        while True:
            event = sub.get(timeout=0.2)
            if event is None:
                break
            seen.append(event.data["index"])
        assert seen == list(range(total))
