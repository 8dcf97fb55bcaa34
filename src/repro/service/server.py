"""The HTTP control plane: stdlib ``ThreadingHTTPServer`` over campaign jobs.

No third-party web framework — the whole API is a
:class:`http.server.BaseHTTPRequestHandler` subclass on a threading
server, which is exactly enough for a control plane whose heavy lifting
happens in :mod:`repro.service.jobs` threads:

========  =================================  =====================================
method    path                               meaning
========  =================================  =====================================
GET       ``/v1/health``                     liveness + campaign count
GET       ``/v1/metrics``                    Prometheus text metrics snapshot
GET       ``/v1/campaigns``                  list campaigns (summary documents)
POST      ``/v1/campaigns``                  submit a spec/preset → campaign id
GET       ``/v1/campaigns/{id}``             full status (counts + per-run records)
GET       ``/v1/campaigns/{id}/report``      aggregate report (``report --json``)
GET       ``/v1/campaigns/{id}/events``      live SSE stream (snapshot/run/done)
DELETE    ``/v1/campaigns/{id}``             cooperative cancel
========  =================================  =====================================

The SSE endpoint streams :func:`sse_event_stream`, a plain generator over
the job's record snapshot and a :class:`repro.service.bus.RunEventBus`
subscription that is also driven directly by the wire-format tests: runs
already recorded when the client connects arrive as ``snapshot`` events,
records landing while subscribed arrive as ``run`` events, a slow
consumer's losses are announced with a ``dropped`` event, and the stream
always ends with one terminal ``done`` event.

See ``docs/service.md`` for the full API reference with curl examples.
"""

from __future__ import annotations

import json
import logging
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterator, Optional, Tuple
from urllib.parse import urlparse

from repro.campaign.presets import get_campaign_preset
from repro.campaign.scheduler import execute_run
from repro.campaign.spec import CampaignSpec
from repro.service.bus import RunEventBus
from repro.service.jobs import (EXECUTOR_OPTION_KEYS, CampaignJob,
                                CampaignJobManager)
from repro.service.sse import (EVENT_DONE, EVENT_DROPPED, EVENT_RUN,
                               EVENT_SNAPSHOT, format_comment, format_event)
from repro.telemetry import REGISTRY
from repro.utils.serialization import jsonable

logger = logging.getLogger(__name__)

_REQUESTS = REGISTRY.counter(
    "repro_service_requests_total", "HTTP requests served, by method")

_CAMPAIGN_PATH = re.compile(r"^/v1/campaigns/([A-Za-z0-9._-]+)$")
_EVENTS_PATH = re.compile(r"^/v1/campaigns/([A-Za-z0-9._-]+)/events$")
_REPORT_PATH = re.compile(r"^/v1/campaigns/([A-Za-z0-9._-]+)/report$")


def sse_event_stream(job: CampaignJob) -> Iterator[str]:
    """Yield the SSE frames of one subscriber watching one campaign.

    The contract (exercised directly by ``tests/service/test_sse_wire.py``):

    * every run the job had recorded when the client connected is replayed
      first as a ``snapshot`` frame — :meth:`CampaignJob.subscribe` takes
      that snapshot and the bus subscription under the job's lock, so each
      record appears exactly once across snapshot and live frames,
    * a job that had already ended then sends ``done`` at once,
    * otherwise records landing while subscribed stream as ``run`` frames,
    * if this subscriber fell behind and the bus dropped events for it, a
      ``dropped`` frame carries the loss count (the client re-reads
      ``GET /v1/campaigns/{id}`` for the authoritative state),
    * the stream ends with exactly one ``done`` frame.  Silence longer
      than :data:`repro.service.bus.KEEPALIVE_S` yields comment frames,
      which both keep proxies from timing the stream out and let the
      server detect a vanished client; if the terminal event itself was
      dropped, the keep-alive tick notices the terminal job state and
      synthesises the ``done`` frame from it.

    The generator unsubscribes from the bus when closed, whether it ran to
    ``done`` or the consumer disconnected mid-stream.
    """
    snapshot, ended, subscription = job.subscribe()
    try:
        for payload in snapshot:
            yield format_event(EVENT_SNAPSHOT, payload)
        if ended:
            yield format_event(EVENT_DONE, job.status())
            return
        while True:
            event = subscription.get()
            dropped = subscription.take_dropped()
            if dropped:
                yield format_event(EVENT_DROPPED, {"campaign_id": job.id,
                                                   "dropped": dropped})
            if event is None:
                # done can be lost to the drop policy like any other event:
                # a terminal job with a drained queue ends the stream here
                if job.is_terminal() and subscription.pending() == 0:
                    yield format_event(EVENT_DONE, job.status())
                    return
                yield format_comment()
                continue
            if event.kind == EVENT_DONE:
                yield format_event(EVENT_DONE, event.data, event_id=event.seq)
                return
            yield format_event(EVENT_RUN, event.data, event_id=event.seq)
    finally:
        job.bus.unsubscribe(subscription)


def parse_submission(body: Dict[str, object]
                     ) -> Tuple[CampaignSpec, Dict[str, object]]:
    """Turn a ``POST /v1/campaigns`` body into (spec, executor options).

    The body names the campaign either way FastAPI-style services do:
    ``{"preset": "campaign-smoke"}`` or ``{"spec": {...CampaignSpec...}}``,
    plus any of the executor option keys (``executor``, ``max_workers``,
    ``cache_dir``).

    Raises:
        ValueError: on a body that is not a JSON object, names both or
            neither of ``preset``/``spec``, or carries unknown keys.
    """
    if not isinstance(body, dict):
        raise ValueError("the request body must be a JSON object")
    known = {"preset", "spec", *EXECUTOR_OPTION_KEYS}
    unknown = sorted(set(body) - known)
    if unknown:
        raise ValueError(f"unknown submission keys {unknown}; valid keys: "
                         f"{', '.join(sorted(known))}")
    preset, spec_dict = body.get("preset"), body.get("spec")
    if (preset is None) == (spec_dict is None):
        raise ValueError("a submission needs exactly one of 'preset' "
                         "(a campaign preset name) or 'spec' "
                         "(a CampaignSpec JSON object)")
    spec = (get_campaign_preset(str(preset)) if preset is not None
            else CampaignSpec.from_dict(spec_dict))
    options = {key: body[key] for key in EXECUTOR_OPTION_KEYS if key in body}
    return spec, options


class CampaignServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the server's :class:`CampaignJobManager`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-campaign-service/1.0"

    # -- plumbing ----------------------------------------------------------- #
    @property
    def manager(self) -> CampaignJobManager:
        """The job manager of the owning server."""
        return self.server.manager

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route access logs to :mod:`logging` instead of stderr."""
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(jsonable(payload), indent=2,
                          sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body; send a JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"request body is not valid JSON: {error}") \
                from None

    def _job_or_404(self, campaign_id: str) -> Optional[CampaignJob]:
        job = self.manager.get(campaign_id)
        if job is None:
            self._error(404, f"unknown campaign {campaign_id!r}")
        return job

    def _send_metrics(self) -> None:
        """Serve the process metrics registry in Prometheus text format."""
        body = REGISTRY.render_prometheus().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routes ------------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Dispatch GET routes (health, metrics, status, report, SSE)."""
        _REQUESTS.inc(1, method="GET")
        path = urlparse(self.path).path
        if path == "/v1/metrics":
            self._send_metrics()
            return
        if path == "/v1/health":
            jobs = self.manager.jobs()
            self._send_json(200, {
                "status": "ok", "campaigns": len(jobs),
                "running": sum(1 for job in jobs if not job.is_terminal())})
            return
        if path == "/v1/campaigns":
            self._send_json(200, {"campaigns": [
                job.status(include_records=False)
                for job in self.manager.jobs()]})
            return
        match = _CAMPAIGN_PATH.match(path)
        if match:
            job = self._job_or_404(match.group(1))
            if job is not None:
                self._send_json(200, job.status(include_records=True))
            return
        match = _REPORT_PATH.match(path)
        if match:
            job = self._job_or_404(match.group(1))
            if job is not None:
                self._send_json(200, job.report())
            return
        match = _EVENTS_PATH.match(path)
        if match:
            job = self._job_or_404(match.group(1))
            if job is not None:
                self._stream_events(job)
            return
        self._error(404, f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Dispatch POST routes (campaign submission)."""
        _REQUESTS.inc(1, method="POST")
        path = urlparse(self.path).path
        if path != "/v1/campaigns":
            self._error(404, f"no route for POST {path}")
            return
        try:
            spec, options = parse_submission(self._read_json())
            job, created, started = self.manager.submit(spec, options)
        except ValueError as error:
            self._error(400, str(error))
            return
        document = job.status(include_records=False)
        document.update(created=created, started=started,
                        events_url=f"/v1/campaigns/{job.id}/events")
        self._send_json(201 if created else 200, document)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        """Dispatch DELETE routes (cooperative campaign cancel)."""
        _REQUESTS.inc(1, method="DELETE")
        match = _CAMPAIGN_PATH.match(urlparse(self.path).path)
        if not match:
            self._error(404, f"no route for DELETE {self.path}")
            return
        job = self._job_or_404(match.group(1))
        if job is None:
            return
        state = job.request_cancel()
        self._send_json(202, {"campaign_id": job.id, "state": state})

    # -- SSE ---------------------------------------------------------------- #
    def _stream_events(self, job: CampaignJob) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # no Content-Length: the stream ends when the server closes it
        self.send_header("Connection", "close")
        self.end_headers()
        frames = sse_event_stream(job)
        try:
            for frame in frames:
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionError, OSError):
            # the client went away mid-stream; the generator's finally
            # block (below, via close) detaches the bus subscription
            pass
        finally:
            frames.close()
            self.close_connection = True


class CampaignServiceServer(ThreadingHTTPServer):
    """A threading HTTP server owning one :class:`CampaignJobManager`.

    Every request gets its own thread, so any number of clients can poll
    status or hold SSE streams open while campaign jobs make progress on
    their own threads — nothing is globally serialised.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 manager: CampaignJobManager) -> None:
        super().__init__(address, CampaignServiceHandler)
        self.manager = manager

    @property
    def url(self) -> str:
        """The server's base URL (resolved port included)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_service(self) -> None:
        """Stop accepting requests and cancel/join the campaign jobs."""
        self.shutdown()
        self.server_close()
        self.manager.shutdown()


def create_server(host: str = "127.0.0.1", port: int = 0,
                  store_dir: str = "campaign-service",
                  worker: Callable = execute_run,
                  bus: Optional[RunEventBus] = None
                  ) -> CampaignServiceServer:
    """Build a ready-to-serve campaign service (``port=0`` picks a free one).

    Args:
        host: bind address.
        port: bind port; 0 lets the OS choose (read ``server.url`` after).
        store_dir: directory of the JSONL stores + spec files — the
            service's only persistent state.
        worker: the per-run worker (tests inject fakes; the default runs
            the real coupled workflow).
        bus: optionally share a pre-built event bus.

    Returns:
        An unstarted :class:`CampaignServiceServer`; call
        ``serve_forever()`` (or drive it from a thread in tests).
    """
    # refused before the store directory or the socket is touched: bind()
    # would raise OverflowError, which is not a bad-input error
    if not 0 <= port <= 65535:
        raise ValueError(f"port must lie in 0..65535, got {port}")
    manager = CampaignJobManager(store_dir, worker=worker, bus=bus)
    return CampaignServiceServer((host, port), manager)


def serve(host: str, port: int, store_dir: str,
          ready: Callable[[CampaignServiceServer], None]) -> int:
    """Run the service until interrupted (the ``repro.cli serve`` backend).

    Args:
        host: bind address.
        port: bind port (0 picks a free one; the banner shows the choice).
        store_dir: store directory (created if missing).
        ready: callback invoked with the bound server before serving —
            the CLI prints the banner there.

    Returns:
        Process exit code (0 on a clean Ctrl-C shutdown).
    """
    server = create_server(host=host, port=port, store_dir=store_dir)
    ready(server)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown_service()
    return 0
