"""repro.service — the campaign control plane as an HTTP service.

Where :mod:`repro.campaign` turned one workflow run into a resumable fleet
of runs, this subsystem turns the fleet into something **many concurrent
clients can drive**: submit a sweep over HTTP, get a campaign id back,
poll its status, and watch every run land live over Server-Sent Events —
the first seam in the repo where execution crosses a process boundary
toward the ROADMAP's heavy-concurrent-traffic north star.

Layers (each its own module, bottom up):

* :mod:`repro.service.sse`    — the SSE wire format: encoder + incremental
  parser shared by server, client and tests,
* :mod:`repro.service.bus`    — :class:`RunEventBus`: in-process pub/sub
  with per-subscriber bounded queues, a slow-subscriber drop policy and
  atomic history+subscribe (the exactly-once snapshot/live guarantee),
* :mod:`repro.service.jobs`   — :class:`CampaignJobManager`: background
  campaign threads keyed by campaign id, one launch each with the cancel
  flag as its cooperative stop,
  with the append-only JSONL store as the single source of truth (service
  restarts resume exactly like CLI ``campaign run``),
* :mod:`repro.service.server` — the stdlib ``ThreadingHTTPServer`` API
  (``POST/GET/DELETE /v1/campaigns`` + ``/events`` SSE streaming),
* :mod:`repro.service.client` — :class:`ServiceClient`, a urllib-based
  client whose SSE iterator backs ``campaign watch`` and the CI smoke job.

No new dependencies: everything runs on the standard library plus the
existing numpy install requirement.

CLI access: ``python -m repro.cli serve`` starts the service;
``python -m repro.cli campaign submit|watch --url ...`` drive it.
See ``docs/service.md``.
"""

from repro.service.bus import BusEvent, RunEventBus, Subscription
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (CampaignJob, CampaignJobManager,
                                campaign_id_of)
from repro.service.server import (CampaignServiceHandler,
                                  CampaignServiceServer, create_server,
                                  parse_submission, serve, sse_event_stream)
from repro.service.sse import (EVENT_DONE, EVENT_DROPPED, EVENT_RUN,
                               EVENT_SNAPSHOT, SSEEvent, SSEParser,
                               format_comment, format_event)

__all__ = [
    "BusEvent",
    "RunEventBus",
    "Subscription",
    "ServiceClient",
    "ServiceError",
    "CampaignJob",
    "CampaignJobManager",
    "campaign_id_of",
    "CampaignServiceHandler",
    "CampaignServiceServer",
    "create_server",
    "parse_submission",
    "serve",
    "sse_event_stream",
    "EVENT_DONE",
    "EVENT_DROPPED",
    "EVENT_RUN",
    "EVENT_SNAPSHOT",
    "SSEEvent",
    "SSEParser",
    "format_comment",
    "format_event",
]
