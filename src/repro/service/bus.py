"""In-process pub/sub for campaign run events.

The :class:`RunEventBus` is the seam between campaign execution and the
service's live streams: :mod:`repro.service.jobs` publishes one event per
:class:`repro.campaign.store.RunRecord` as ``run_campaign``'s ``on_record``
observer fires, and every open SSE response holds one subscription.

The bus only fans out: it keeps no event once it has been offered.  What a
late subscriber must replay is the job's own record list, and
:meth:`repro.service.jobs.CampaignJob.subscribe` takes that snapshot and
the subscription under the job's lock, so every record lands in exactly
one of the two.

Two properties make it safe to put between a hot executor and an unknown
number of HTTP clients:

* **bounded subscriber queues** — each subscription owns a fixed-size
  queue; publishing never blocks on a consumer,
* **slow-subscriber drop policy** — when a subscriber's queue is full the
  *new* event is dropped for that subscriber only and counted on the
  subscription, so one stalled client can neither back-pressure the
  executor nor starve its peers (the SSE layer reports the loss with a
  ``dropped`` event; a client that must not miss anything re-reads the
  store, which remains the source of truth).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    #: events dropped because this subscriber's queue was full, not yet
    #: reported
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
    """Topic-keyed fan-out of campaign events; each subscriber queue holds
    :data:`QUEUE_SIZE` events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: Dict[str, List[Subscription]] = {}
        self._published: Dict[str, int] = {}
        self._dropped: Dict[str, int] = {}

    def publish(self, topic: str, kind: str,
                data: Dict[str, object]) -> BusEvent:
        """Number an event within its topic and offer it to the subscribers.

        Never blocks: a full subscriber queue drops the event for that
        subscriber (counted on its :class:`Subscription`).

        Returns:
            The published :class:`BusEvent` with its assigned sequence
            number.
        """
        with self._lock:
            seq = self._published[topic] = self._published.get(topic, 0) + 1
            subscribers = list(self._subscribers.get(topic, ()))
        event = BusEvent(seq=seq, kind=kind, data=dict(data))
        _BUS_PUBLISHED.inc(1, kind=kind)
        drops = sum(1 for subscription in subscribers
                    if not subscription._offer(event))
        if drops:
            _BUS_DROPPED.inc(drops, kind=kind)
            with self._lock:
                self._dropped[topic] = self._dropped.get(topic, 0) + drops
        return event

    def subscribe(self, topic: str) -> Subscription:
        """Register a subscriber: it receives every event published after."""
        subscription = Subscription(topic=topic, _queue=queue.Queue(QUEUE_SIZE))
        with self._lock:
            self._subscribers.setdefault(topic, []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscription; idempotent (a double detach is a no-op)."""
        with self._lock:
            subscribers = self._subscribers.get(subscription.topic, [])
            if subscription in subscribers:
                subscribers.remove(subscription)

    def topic_stats(self, topic: str) -> Dict[str, int]:
        """JSON-able per-topic accounting: events published since the bus
        was made, open subscribers, drops."""
        with self._lock:
            return {"events": self._published.get(topic, 0),
                    "subscribers": len(self._subscribers.get(topic, ())),
                    "dropped": self._dropped.get(topic, 0)}
