"""In-process pub/sub for campaign run events.

The :class:`RunEventBus` is the seam between campaign execution and the
service's live streams: :mod:`repro.service.jobs` publishes one event per
:class:`repro.campaign.store.RunRecord` as ``run_campaign``'s ``on_record``
observer fires, and every open SSE response holds one subscription.

Three properties make it safe to put between a hot executor and an unknown
number of HTTP clients:

* **bounded subscriber queues** — each subscription owns a fixed-size
  queue; publishing never blocks on a consumer,
* **slow-subscriber drop policy** — when a subscriber's queue is full the
  *new* event is dropped for that subscriber only and counted on the
  subscription, so one stalled client can neither back-pressure the
  executor nor starve its peers (the SSE layer reports the loss with a
  ``dropped`` event; a client that must not miss anything re-reads the
  store, which remains the source of truth),
* **atomic history + subscribe** — the bus retains each topic's event
  history (bounded by campaign size: one event per run record plus the
  terminal event), and :meth:`RunEventBus.subscribe` returns the history
  snapshot and the registered subscription under one lock.  There is no
  gap in which a concurrently published event could be in neither the
  snapshot nor the queue — the exactly-once guarantee of snapshot+live
  streaming rests here.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.telemetry import REGISTRY

#: Per-subscriber queue capacity, read when a subscription is made.
QUEUE_SIZE = 256

#: Seconds :meth:`Subscription.get` waits for an event: the interval of the
#: SSE keep-alive comments a silent stream sends.
KEEPALIVE_S = 15.0

_BUS_PUBLISHED = REGISTRY.counter(
    "repro_bus_events_total", "Events published on the run event bus, by kind")
_BUS_DROPPED = REGISTRY.counter(
    "repro_bus_dropped_total",
    "Events dropped by full subscriber queues, by kind")


@dataclass(frozen=True)
class BusEvent:
    """One published event: a per-topic sequence number, a kind, a payload."""

    seq: int                        #: monotonic per-topic sequence number
    kind: str                       #: e.g. ``run`` or ``done``
    data: Dict[str, object]         #: JSON-able payload


@dataclass
class Subscription:
    """One subscriber's bounded mailbox on a topic.

    Obtained from :meth:`RunEventBus.subscribe`; release it with
    :meth:`RunEventBus.unsubscribe` (the SSE handler does so in a
    ``finally`` so a disconnected client always detaches).
    """

    topic: str
    _queue: "queue.Queue[BusEvent]" = field(repr=False)
    #: events dropped because this subscriber's queue was full (total)
    dropped: int = 0
    _dropped_unreported: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def get(self) -> Optional[BusEvent]:
        """Next event, or ``None`` after :data:`KEEPALIVE_S` of silence."""
        try:
            return self._queue.get(timeout=KEEPALIVE_S)
        except queue.Empty:
            return None

    def _offer(self, event: BusEvent) -> bool:
        """Enqueue without blocking; ``False`` when the event was dropped."""
        try:
            self._queue.put_nowait(event)
            return True
        except queue.Full:
            with self._lock:
                self.dropped += 1
                self._dropped_unreported += 1
            return False

    def take_dropped(self) -> int:
        """Drops since the last call (what the SSE layer reports), then 0."""
        with self._lock:
            count = self._dropped_unreported
            self._dropped_unreported = 0
        return count

    def pending(self) -> int:
        """Events currently queued and not yet consumed (approximate)."""
        return self._queue.qsize()


class RunEventBus:
    """Topic-keyed fan-out of campaign events with per-topic history; each
    subscriber queue holds :data:`QUEUE_SIZE` events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._history: Dict[str, List[BusEvent]] = {}
        self._subscribers: Dict[str, List[Subscription]] = {}
        self._seq: Dict[str, "itertools.count[int]"] = {}
        self._dropped: Dict[str, int] = {}

    # -- publishing --------------------------------------------------------- #
    def publish(self, topic: str, kind: str,
                data: Dict[str, object]) -> BusEvent:
        """Append an event to the topic history and offer it to subscribers.

        Never blocks: a full subscriber queue drops the event for that
        subscriber (counted on its :class:`Subscription`).

        Returns:
            The published :class:`BusEvent` with its assigned sequence
            number.
        """
        with self._lock:
            event = self._append(topic, kind, data)
            subscribers = list(self._subscribers.get(topic, ()))
        _BUS_PUBLISHED.inc(1, kind=kind)
        drops = sum(1 for subscription in subscribers
                    if not subscription._offer(event))
        if drops:
            _BUS_DROPPED.inc(drops, kind=kind)
            with self._lock:
                self._dropped[topic] = self._dropped.get(topic, 0) + drops
        return event

    def seed(self, topic: str, kind: str, data: Dict[str, object]) -> BusEvent:
        """Append to the topic history *without* fanning out to subscribers.

        Used when attaching to an existing campaign store after a service
        restart: the store's records become replayable history, but they
        are not "new" events for anyone already subscribed.
        """
        with self._lock:
            return self._append(topic, kind, data)

    def _append(self, topic: str, kind: str,
                data: Dict[str, object]) -> BusEvent:
        counter = self._seq.setdefault(topic, itertools.count(1))
        event = BusEvent(seq=next(counter), kind=kind, data=dict(data))
        self._history.setdefault(topic, []).append(event)
        return event

    # -- subscribing -------------------------------------------------------- #
    def subscribe(self, topic: str) -> Tuple[List[BusEvent], Subscription]:
        """Register a subscriber, atomically returning (history, subscription).

        The snapshot and the registration happen under one lock, so every
        event of the topic lands in exactly one of the two: the returned
        history list or the subscription's queue.
        """
        subscription = Subscription(topic=topic, _queue=queue.Queue(QUEUE_SIZE))
        with self._lock:
            history = list(self._history.get(topic, ()))
            self._subscribers.setdefault(topic, []).append(subscription)
        return history, subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscription; idempotent (a double detach is a no-op)."""
        with self._lock:
            subscribers = self._subscribers.get(subscription.topic, [])
            if subscription in subscribers:
                subscribers.remove(subscription)

    # -- introspection ------------------------------------------------------ #
    def topic_stats(self, topic: str) -> Dict[str, int]:
        """JSON-able per-topic accounting: events, subscribers, drops."""
        with self._lock:
            return {"events": len(self._history.get(topic, ())),
                    "subscribers": len(self._subscribers.get(topic, ())),
                    "dropped": self._dropped.get(topic, 0)}

    def history(self, topic: str) -> List[BusEvent]:
        """A snapshot of the topic's full event history."""
        with self._lock:
            return list(self._history.get(topic, ()))
