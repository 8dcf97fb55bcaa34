"""Tests of the in-process RunEventBus: fan-out, bounds, drops, atomicity."""

from __future__ import annotations

import threading
import time

import pytest
from sse_helpers import subscriber_count

from repro.service import bus as bus_module
from repro.service.bus import RunEventBus


@pytest.fixture(autouse=True)
def short_keepalive(monkeypatch):
    """A subscriber with nothing queued gives up after 50 ms."""
    monkeypatch.setattr(bus_module, "KEEPALIVE_S", 0.05)


class TestPublishSubscribe:
    def test_subscriber_receives_published_events_in_order(self):
        bus = RunEventBus()
        history, sub = bus.subscribe("c1")
        assert history == []
        for index in range(3):
            bus.publish("c1", "run", {"index": index})
        got = [sub.get() for _ in range(3)]
        assert [event.data["index"] for event in got] == [0, 1, 2]
        assert [event.seq for event in got] == [1, 2, 3]

    def test_topics_are_isolated(self):
        bus = RunEventBus()
        _, sub_a = bus.subscribe("a")
        _, sub_b = bus.subscribe("b")
        bus.publish("a", "run", {"topic": "a"})
        assert sub_a.get().data == {"topic": "a"}
        assert sub_b.get() is None

    def test_fan_out_reaches_every_subscriber(self):
        bus = RunEventBus()
        subs = [bus.subscribe("c")[1] for _ in range(3)]
        event = bus.publish("c", "run", {"n": 1})
        assert all(sub.get().seq == event.seq for sub in subs)

    def test_a_silent_subscriber_waits_out_the_keepalive(self):
        bus = RunEventBus()
        _, sub = bus.subscribe("silent")
        start = time.monotonic()
        assert sub.get() is None
        assert time.monotonic() - start >= bus_module.KEEPALIVE_S

    def test_unsubscribe_stops_delivery_and_is_idempotent(self):
        bus = RunEventBus()
        _, sub = bus.subscribe("c")
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)
        bus.publish("c", "run", {})
        assert sub.get() is None
        assert subscriber_count(bus, "c") == 0

    def test_publish_never_blocks_without_subscribers(self, monkeypatch):
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 1)
        bus = RunEventBus()
        for index in range(100):
            bus.publish("quiet", "run", {"index": index})
        assert len(bus.history("quiet")) == 100


class TestSlowSubscriberDropPolicy:
    def test_full_queue_drops_new_events_and_counts_them(self, monkeypatch):
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 2)
        bus = RunEventBus()
        _, slow = bus.subscribe("c")
        for index in range(10):
            bus.publish("c", "run", {"index": index})
        # the first two made it; the other eight were dropped for this
        # subscriber only (history keeps everything)
        assert [slow.get().data["index"] for _ in range(2)] == [0, 1]
        assert slow.dropped == 8
        assert slow.take_dropped() == 8
        assert slow.take_dropped() == 0
        assert len(bus.history("c")) == 10

    def test_a_slow_subscriber_does_not_starve_its_peers(self, monkeypatch):
        bus = RunEventBus()
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 1)
        _, slow = bus.subscribe("c")
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 64)
        _, fast = bus.subscribe("c")
        for index in range(20):
            bus.publish("c", "run", {"index": index})
        received = [fast.get().data["index"] for _ in range(20)]
        assert received == list(range(20))
        assert slow.dropped == 19


class TestHistoryAndAtomicity:
    def test_seed_fills_history_without_fanning_out(self):
        bus = RunEventBus()
        _, sub = bus.subscribe("c")
        bus.seed("c", "run", {"replayed": True})
        assert sub.get() is None
        assert [event.data for event in bus.history("c")] == [{"replayed": True}]

    def test_subscribe_snapshot_plus_live_sees_every_event_exactly_once(
            self, monkeypatch):
        """The exactly-once guarantee: under concurrent publishing, every
        event lands in either the subscribe-time snapshot or the queue —
        never both, never neither."""
        bus = RunEventBus()
        total = 300
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", total)
        started = threading.Event()

        def publisher():
            started.set()
            for index in range(total):
                bus.publish("c", "run", {"index": index})

        thread = threading.Thread(target=publisher)
        thread.start()
        started.wait()
        history, sub = bus.subscribe("c")
        thread.join()
        seen = [event.data["index"] for event in history]
        while True:
            event = sub.get()
            if event is None:
                break
            seen.append(event.data["index"])
        assert seen == list(range(total))
