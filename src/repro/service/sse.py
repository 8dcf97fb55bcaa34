"""Server-Sent Events wire format: one encoder, one incremental parser.

SSE is the service's live-streaming transport (``text/event-stream``,
`WHATWG HTML §9.2 <https://html.spec.whatwg.org/multipage/server-sent-events.html>`_):
a long-lived HTTP response carrying newline-delimited frames of the form ::

    event: run
    id: 7
    data: {"run_id": "...", "status": "completed", ...}
    <blank line>

Both directions of that protocol live here so they cannot drift apart:

* :func:`format_event` / :func:`format_comment` — what the server writes,
* :class:`SSEParser` — what
  :class:`repro.service.client.ServiceClient` (and the test suite's shared
  ``parse_sse_events`` helper) read back.

The parser is incremental by design: feed it whatever chunk of bytes the
socket produced and collect the events completed so far — exactly what a
streaming client needs, and what lets the tests drive snapshot-replay,
live-append and disconnect scenarios over the real wire format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: SSE event types emitted by the campaign control plane.
EVENT_SNAPSHOT = "snapshot"     #: replay of an already-recorded run on connect
EVENT_RUN = "run"               #: a run record that landed while subscribed
EVENT_DONE = "done"             #: terminal frame: the campaign reached an end state
EVENT_DROPPED = "dropped"       #: this subscriber was too slow; events were lost


def format_event(event: str, data: Dict[str, object],
                 event_id: Optional[int] = None) -> str:
    """Encode one SSE frame (``event:`` / ``id:`` / ``data:`` + blank line).

    Args:
        event: the event type (``run``, ``snapshot``, ``done``, ``dropped``).
        data: JSON-able payload, serialised onto a single ``data:`` line.
        event_id: optional monotonic sequence number (the bus seq), letting
            clients detect replays.

    Returns:
        The complete frame text, terminated by the blank line that ends an
        SSE event.
    """
    lines = [f"event: {event}"]
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append("data: " + json.dumps(data, sort_keys=True))
    return "\n".join(lines) + "\n\n"


def format_comment(text: str = "keep-alive") -> str:
    """Encode an SSE comment frame (ignored by parsers, keeps the pipe warm).

    Comments double as liveness probes: writing one to a disconnected
    client raises, which is how the server notices a consumer went away
    between events.
    """
    return f": {text}\n\n"


@dataclass
class SSEEvent:
    """One parsed SSE frame."""

    event: str                       #: the ``event:`` field
    data: Dict[str, object]          #: the JSON-decoded ``data:`` payload
    id: Optional[int] = None         #: the ``id:`` field, when present


@dataclass
class SSEParser:
    """Incremental SSE line-protocol parser.

    Feed raw text chunks as they arrive; completed events are returned as
    :class:`SSEEvent` objects.  Partial frames are buffered across ``feed``
    calls, comment frames (``: ...``) are discarded, and multi-line
    ``data:`` fields are joined with newlines per the SSE specification.
    """

    _buffer: str = ""
    _event: Optional[str] = None
    _data_lines: List[str] = field(default_factory=list)
    _id: Optional[int] = None

    def feed(self, chunk: str) -> List[SSEEvent]:
        """Consume one chunk of stream text, returning the completed events."""
        self._buffer += chunk
        events: List[SSEEvent] = []
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            event = self._feed_line(line.rstrip("\r"))
            if event is not None:
                events.append(event)
        return events

    def _feed_line(self, line: str) -> Optional[SSEEvent]:
        if line.startswith(":"):            # comment / keep-alive
            return None
        if line.startswith("event:"):
            self._event = line[len("event:"):].strip()
            return None
        if line.startswith("id:"):
            raw = line[len("id:"):].strip()
            self._id = int(raw) if raw.lstrip("-").isdigit() else None
            return None
        if line.startswith("data:"):
            self._data_lines.append(line[len("data:"):].lstrip(" "))
            return None
        if line == "" and (self._event is not None or self._data_lines):
            raw = "\n".join(self._data_lines)
            event = SSEEvent(event=self._event or "message",
                             data=json.loads(raw) if raw else {},
                             id=self._id)
            self._event, self._data_lines, self._id = None, [], None
            return event
        return None                          # unknown field or stray blank
