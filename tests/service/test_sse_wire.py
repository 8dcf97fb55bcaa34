"""SSE wire-format tests: encoder/parser round trips + the event stream.

``sse_event_stream`` is the exact generator the HTTP handler writes to the
socket, driven here directly (no server) against a real ``RunEventBus`` so
snapshot-replay, live-append, slow-consumer drops and mid-stream
disconnects are deterministic — every assertion goes through the shared
``parse_sse_events`` helper, i.e. through the real line protocol.
"""

from __future__ import annotations

from sse_helpers import events_of_kind, parse_sse_events, run_ids_of

from repro.service.bus import RunEventBus
from repro.service.server import sse_event_stream
from repro.service.sse import (SSEParser, format_comment, format_event,
                               parse_events)


class TestWireFormat:
    def test_format_and_parse_round_trip(self):
        raw = (format_event("run", {"run_id": "abc", "status": "completed"},
                            event_id=4)
               + format_comment()
               + format_event("done", {"state": "completed"}))
        events = parse_sse_events(raw)
        assert events == [
            {"event": "run", "id": 4,
             "data": {"run_id": "abc", "status": "completed"}},
            {"event": "done", "id": None, "data": {"state": "completed"}},
        ]

    def test_frames_end_with_a_blank_line(self):
        frame = format_event("run", {"a": 1})
        assert frame.endswith("\n\n")
        assert frame.startswith("event: run\n")

    def test_comments_are_ignored_by_the_parser(self):
        assert parse_sse_events(format_comment("keep-alive")) == []

    def test_incremental_parsing_across_chunk_boundaries(self):
        """A frame split at arbitrary byte boundaries parses identically —
        the client feeds whatever the socket hands it."""
        raw = format_event("run", {"run_id": "xyz"}, event_id=1) \
            + format_event("done", {"state": "completed"}, event_id=2)
        for split in range(1, len(raw)):
            parser = SSEParser()
            events = parser.feed(raw[:split]) + parser.feed(raw[split:])
            assert [event.event for event in events] == ["run", "done"]
            assert events[0].data == {"run_id": "xyz"}

    def test_multi_line_data_joins_per_spec(self):
        events = parse_events('event: run\ndata: {"a":\ndata: 1}\n\n')
        assert events[0].data == {"a": 1}


class _StubJob:
    """The minimal job surface ``sse_event_stream`` consumes."""

    def __init__(self, bus, campaign_id="stub-campaign", state="running"):
        self.bus = bus
        self.id = campaign_id
        self.state = state

    def is_terminal(self):
        return self.state in ("completed", "failed", "cancelled")

    def status(self, include_records=False):
        return {"campaign": "stub", "state": self.state, "done": True}


def _publish_run(bus, topic, run_id):
    bus.publish(topic, "run", {"run_id": run_id, "status": "completed"})


class TestEventStream:
    def test_snapshot_replay_then_done(self):
        """Records landed before connect arrive as ``snapshot`` frames; a
        history that already ends in ``done`` terminates the stream."""
        bus = RunEventBus()
        job = _StubJob(bus, state="completed")
        for run_id in ("r1", "r2"):
            bus.seed(job.id, "run", {"run_id": run_id, "status": "completed"})
        bus.seed(job.id, "done", {"state": "completed"})
        events = parse_sse_events("".join(sse_event_stream(job)))
        assert [event["event"] for event in events] == \
            ["snapshot", "snapshot", "done"]
        assert run_ids_of(events) == ["r1", "r2"]
        assert bus.subscriber_count(job.id) == 0

    def test_live_append_streams_run_frames_until_done(self):
        bus = RunEventBus()
        job = _StubJob(bus)
        stream = sse_event_stream(job, keepalive_s=0.05)
        collected = [next(stream)]       # keep-alive tick: now subscribed
        _publish_run(bus, job.id, "live-1")
        collected.append(next(stream))
        _publish_run(bus, job.id, "live-2")
        collected.append(next(stream))
        bus.publish(job.id, "done", {"state": "completed"})
        collected.extend(stream)         # runs to the terminal frame
        events = parse_sse_events("".join(collected))
        assert [event["event"] for event in events] == ["run", "run", "done"]
        assert run_ids_of(events) == ["live-1", "live-2"]
        assert bus.subscriber_count(job.id) == 0

    def test_snapshot_plus_live_mix(self):
        bus = RunEventBus()
        job = _StubJob(bus)
        bus.seed(job.id, "run", {"run_id": "old", "status": "completed"})
        stream = sse_event_stream(job, keepalive_s=5)
        first = next(stream)
        _publish_run(bus, job.id, "new")
        bus.publish(job.id, "done", {"state": "completed"})
        events = parse_sse_events(first + "".join(stream))
        assert [event["event"] for event in events] == \
            ["snapshot", "run", "done"]
        assert run_ids_of(events) == ["old", "new"]

    def test_a_stale_done_is_skipped_while_the_resumed_launch_runs(self):
        bus = RunEventBus()
        job = _StubJob(bus)              # resumed: running again
        bus.seed(job.id, "run", {"run_id": "old", "status": "completed"})
        bus.seed(job.id, "done", {"state": "cancelled"})
        stream = sse_event_stream(job, keepalive_s=5)
        first = next(stream)             # subscribed, replaying "old"
        _publish_run(bus, job.id, "new")
        first += next(stream)            # passes over the stale done
        assert parse_sse_events(first)[-1]["event"] == "run"
        job.state = "completed"
        bus.publish(job.id, "done", {"state": "completed"})
        events = parse_sse_events(first + "".join(stream))
        assert [event["event"] for event in events] == \
            ["snapshot", "run", "done"]
        assert run_ids_of(events) == ["old", "new"]
        assert events[-1]["data"]["state"] == "completed"

    def test_a_resumed_launch_that_ends_mid_replay_is_streamed(self):
        """A cancelled campaign was resubmitted; its new launch runs and
        turns terminal while the old history is still being replayed.  The
        old ``done`` is stale: the stream carries the new runs and ends on
        the new launch's ``done``."""
        bus = RunEventBus()
        job = _StubJob(bus)              # resumed: running again
        bus.seed(job.id, "run", {"run_id": "old", "status": "completed"})
        bus.seed(job.id, "done", {"state": "cancelled"})
        stream = sse_event_stream(job, keepalive_s=5)
        first = next(stream)             # subscribed, replaying "old"
        _publish_run(bus, job.id, "new")
        job.state = "completed"          # set before its done is published
        bus.publish(job.id, "done", {"state": "completed"})
        events = parse_sse_events(first + "".join(stream))
        assert [event["event"] for event in events] == \
            ["snapshot", "run", "done"]
        assert run_ids_of(events) == ["old", "new"]
        assert events[-1]["data"]["state"] == "completed"

    def test_slow_consumer_drop_is_reported_on_the_wire(self):
        """A subscriber whose bounded queue overflows gets an explicit
        ``dropped`` frame with the loss count — never silent gaps."""
        bus = RunEventBus()
        job = _StubJob(bus)
        _publish_run(bus, job.id, "r0")
        stream = sse_event_stream(job, keepalive_s=0.1, max_queue_size=2)
        first = next(stream)             # subscribes, replays r0 as snapshot
        # the subscriber is not pulling: 5 more records + done land on a
        # queue of 2, so r1/r2 are queued and r3/r4/r5/done are dropped
        for index in range(1, 6):
            _publish_run(bus, job.id, f"r{index}")
        bus.publish(job.id, "done", {"state": "completed"})
        job.state = "completed"          # the manager would have set this
        events = parse_sse_events(first + "".join(stream))
        dropped = events_of_kind(events, "dropped")
        assert len(dropped) == 1
        assert dropped[0]["data"]["dropped"] == 4
        # the stream still terminates: the keep-alive tick notices the
        # terminal job state and synthesises the lost done frame, so the
        # client knows to re-read the status document
        assert events[-1]["event"] == "done"
        assert run_ids_of(events) == ["r0", "r1", "r2"]

    def test_mid_stream_disconnect_detaches_the_subscription(self):
        """Closing the generator (what the handler does when the socket
        write fails) must release the bus subscription."""
        bus = RunEventBus()
        job = _StubJob(bus)
        stream = sse_event_stream(job, keepalive_s=0.05)
        next(stream)                     # keep-alive tick: now subscribed
        _publish_run(bus, job.id, "r1")
        assert parse_sse_events(next(stream))[0]["event"] == "run"
        assert bus.subscriber_count(job.id) == 1
        stream.close()                   # client went away mid-stream
        assert bus.subscriber_count(job.id) == 0

    def test_terminal_job_with_lost_done_event_still_ends_the_stream(self):
        """If the terminal event itself fell to the drop policy, the
        keep-alive tick synthesises ``done`` from the job state."""
        bus = RunEventBus()
        job = _StubJob(bus, state="completed")
        stream = sse_event_stream(job, keepalive_s=0.05, max_queue_size=1)
        events = parse_sse_events("".join(stream))
        assert events[-1]["event"] == "done"
        assert events[-1]["data"]["state"] == "completed"
        assert bus.subscriber_count(job.id) == 0
