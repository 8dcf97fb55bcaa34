"""Shared SSE test helpers (the harness idiom from SNIPPETS.md).

Every service test parses the wire format through :func:`parse_sse_events`
so the expected shape — ``[{"event": ..., "data": ..., "id": ...}, ...]``
— lives in exactly one place, mirroring the ``_parse_sse_events`` helpers
of the FastAPI streaming test harnesses the service contract is grounded
in.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.service.sse import SSEEvent, SSEParser


def parse_events(raw: str) -> List[SSEEvent]:
    """Parse a complete SSE stream body into its events."""
    return SSEParser().feed(raw if raw.endswith("\n") else raw + "\n")


def parse_sse_events(raw: str) -> List[Dict[str, Any]]:
    """Parse SSE stream text into a list of ``{event, data, id}`` dicts."""
    return [{"event": event.event, "data": event.data, "id": event.id}
            for event in parse_events(raw)]


def subscriber_count(bus, topic: str) -> int:
    """Open subscriptions of a :class:`RunEventBus` topic."""
    with bus._lock:
        return len(bus._subscribers.get(topic, ()))


def events_of_kind(events: List[Dict[str, Any]], kind: str
                   ) -> List[Dict[str, Any]]:
    """The subset of parsed events with a given ``event:`` type."""
    return [event for event in events if event["event"] == kind]


def run_ids_of(events: List[Dict[str, Any]]) -> List[str]:
    """The run ids carried by ``run``/``snapshot`` events, in stream order."""
    return [event["data"]["run_id"] for event in events
            if event["event"] in ("run", "snapshot")]
