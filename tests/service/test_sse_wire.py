"""SSE wire-format tests: encoder/parser round trips + the event stream.

``sse_event_stream`` is the exact generator the HTTP handler writes to the
socket, driven here directly (no server) against a real ``RunEventBus`` so
snapshot-replay, live-append, slow-consumer drops and mid-stream
disconnects are deterministic — every assertion goes through the shared
``parse_sse_events`` helper, i.e. through the real line protocol.  Most
tests stand a stub in for the job; the resume test drives a real
``CampaignJob`` launch.
"""

from __future__ import annotations

import threading

from sse_helpers import (events_of_kind, parse_events, parse_sse_events,
                         run_ids_of, subscriber_count)

from repro.campaign import CampaignStore, get_campaign_preset, run_campaign
from repro.service import bus as bus_module
from repro.service.bus import RunEventBus
from repro.service.jobs import CampaignJob
from repro.service.server import sse_event_stream
from repro.service.sse import SSEParser, format_comment, format_event


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

    def __init__(self, bus, campaign_id="stub-campaign", state="running",
                 recorded=()):
        self.bus = bus
        self.id = campaign_id
        self.state = state
        self.recorded = list(recorded)

    def is_terminal(self):
        return self.state in ("completed", "failed", "cancelled")

    def status(self, include_records=False):
        return {"campaign": "stub", "state": self.state, "done": True}

    def subscribe(self):
        return ([{"run_id": run_id, "status": "completed"}
                 for run_id in self.recorded],
                self.is_terminal(), self.bus.subscribe(self.id))


def _publish_run(bus, topic, run_id):
    bus.publish(topic, "run", {"run_id": run_id, "status": "completed"})


class TestEventStream:
    def test_snapshot_replay_then_done(self):
        """Records landed before connect arrive as ``snapshot`` frames,
        without an ``id:``; a job that had already ended then sends
        ``done`` at once."""
        bus = RunEventBus()
        job = _StubJob(bus, state="completed", recorded=("r1", "r2"))
        events = parse_sse_events("".join(sse_event_stream(job)))
        assert [event["event"] for event in events] == \
            ["snapshot", "snapshot", "done"]
        assert [event["id"] for event in events] == [None, None, None]
        assert run_ids_of(events) == ["r1", "r2"]
        assert events[-1]["data"]["state"] == "completed"
        assert subscriber_count(bus, job.id) == 0

    def test_live_append_streams_run_frames_until_done(self, monkeypatch):
        bus = RunEventBus()
        job = _StubJob(bus)
        monkeypatch.setattr(bus_module, "KEEPALIVE_S", 0.05)
        stream = sse_event_stream(job)
        collected = [next(stream)]       # keep-alive tick: now subscribed
        _publish_run(bus, job.id, "live-1")
        collected.append(next(stream))
        _publish_run(bus, job.id, "live-2")
        collected.append(next(stream))
        bus.publish(job.id, "done", {"state": "completed"})
        collected.extend(stream)         # runs to the terminal frame
        events = parse_sse_events("".join(collected))
        assert [event["event"] for event in events] == ["run", "run", "done"]
        assert [event["id"] for event in events] == [1, 2, 3]
        assert run_ids_of(events) == ["live-1", "live-2"]
        assert subscriber_count(bus, job.id) == 0

    def test_snapshot_plus_live_mix(self):
        bus = RunEventBus()
        job = _StubJob(bus, recorded=("old",))
        stream = sse_event_stream(job)
        first = next(stream)
        _publish_run(bus, job.id, "new")
        bus.publish(job.id, "done", {"state": "completed"})
        events = parse_sse_events(first + "".join(stream))
        assert [event["event"] for event in events] == \
            ["snapshot", "run", "done"]
        assert run_ids_of(events) == ["old", "new"]

    def test_a_resumed_campaign_streams_its_new_launch_to_its_done(
            self, tmp_path):
        """A campaign whose first launch ended early is resumed: the old
        records arrive as ``snapshot`` frames, the new runs as ``run``
        frames, and the stream ends on the new launch's ``done``."""
        spec = get_campaign_preset("campaign-smoke")
        store = CampaignStore(str(tmp_path / "resumed.jsonl"))
        gate = threading.Event()

        def worker(payload):
            assert gate.wait(timeout=30), "test gate never released"
            return {"final_total_loss": 1.0, "ok": True}

        gate.set()
        run_campaign(spec, store, worker=worker, max_runs=1)
        old = sorted(store.completed_run_ids())
        gate.clear()
        job = CampaignJob("resumed", spec, store, RunEventBus(), {},
                          worker=worker)
        assert job.state == "interrupted"
        assert job.start()
        stream = sse_event_stream(job)
        first = next(stream)             # subscribed while the launch waits
        gate.set()
        events = parse_sse_events(first + "".join(stream))
        kinds = [event["event"] for event in events]
        assert kinds == ["snapshot"] + ["run"] * (len(spec.resolve()) - 1) \
            + ["done"]
        assert run_ids_of(events)[:1] == old
        assert sorted(run_ids_of(events)) == \
            sorted(run.run_id for run in spec.resolve())
        assert events[-1]["data"]["state"] == "completed"
        job.join()

    def test_a_resumed_launch_that_ends_mid_replay_is_streamed(self):
        """A resumed campaign's new launch records a run and turns terminal
        while the old records are still being replayed.  The job had not
        ended when the watcher subscribed, so the stream does not stop at
        the replay: it carries the new run and ends on the launch's own
        ``done``."""
        bus = RunEventBus()
        job = _StubJob(bus, recorded=("old-1", "old-2"))  # running again
        stream = sse_event_stream(job)
        first = next(stream)             # subscribed, replaying "old-1"
        _publish_run(bus, job.id, "new")
        job.state = "completed"          # set before its done is published
        bus.publish(job.id, "done", {"state": "completed"})
        events = parse_sse_events(first + "".join(stream))
        assert [event["event"] for event in events] == \
            ["snapshot", "snapshot", "run", "done"]
        assert [event["id"] for event in events] == [None, None, 1, 2]
        assert run_ids_of(events) == ["old-1", "old-2", "new"]
        assert events[-1]["data"]["state"] == "completed"
        assert subscriber_count(bus, job.id) == 0

    def test_slow_consumer_drop_is_reported_on_the_wire(self, monkeypatch):
        """A subscriber whose bounded queue overflows gets an explicit
        ``dropped`` frame with the loss count — never silent gaps."""
        bus = RunEventBus()
        job = _StubJob(bus, recorded=("r0",))
        monkeypatch.setattr(bus_module, "KEEPALIVE_S", 0.1)
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 2)
        stream = sse_event_stream(job)
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

    def test_mid_stream_disconnect_detaches_the_subscription(self,
                                                             monkeypatch):
        """Closing the generator (what the handler does when the socket
        write fails) must release the bus subscription."""
        bus = RunEventBus()
        job = _StubJob(bus)
        monkeypatch.setattr(bus_module, "KEEPALIVE_S", 0.05)
        stream = sse_event_stream(job)
        next(stream)                     # keep-alive tick: now subscribed
        _publish_run(bus, job.id, "r1")
        assert parse_sse_events(next(stream))[0]["event"] == "run"
        assert subscriber_count(bus, job.id) == 1
        stream.close()                   # client went away mid-stream
        assert subscriber_count(bus, job.id) == 0

    def test_terminal_job_with_lost_done_event_still_ends_the_stream(
            self, monkeypatch):
        """If the terminal event itself fell to the drop policy, the
        keep-alive tick synthesises ``done`` from the job state."""
        bus = RunEventBus()
        job = _StubJob(bus)
        monkeypatch.setattr(bus_module, "KEEPALIVE_S", 0.05)
        monkeypatch.setattr(bus_module, "QUEUE_SIZE", 1)
        stream = sse_event_stream(job)
        first = next(stream)             # keep-alive tick: now subscribed
        _publish_run(bus, job.id, "r1")  # fills the queue of one
        job.state = "completed"
        bus.publish(job.id, "done", {"state": "completed"})   # dropped
        events = parse_sse_events(first + "".join(stream))
        assert [event["event"] for event in events] == \
            ["dropped", "run", "done"]
        assert events[-1]["data"]["state"] == "completed"
        assert subscriber_count(bus, job.id) == 0
