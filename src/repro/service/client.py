"""A stdlib (urllib) client for the campaign control plane.

:class:`ServiceClient` wraps the whole HTTP API of
:mod:`repro.service.server` — submit, list, status, report, cancel — and
turns the SSE endpoint into a plain Python iterator of
:class:`repro.service.sse.SSEEvent` objects via the shared incremental
parser, so ``campaign watch``, the CI smoke job and the test suite all
consume the stream the same way:

>>> client = ServiceClient("http://127.0.0.1:8765")   # doctest: +SKIP
>>> submitted = client.submit(preset="campaign-smoke")  # doctest: +SKIP
>>> for event in client.watch(submitted["campaign_id"]):  # doctest: +SKIP
...     print(event.event, event.data.get("run_id"))

No third-party dependencies: everything rides on ``urllib.request``.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

from repro.service.sse import EVENT_DONE, SSEEvent, SSEParser

#: Seconds between the health polls of :meth:`ServiceClient.wait_ready`.
POLL_INTERVAL_S = 0.1


class ServiceError(OSError):
    """An HTTP-level failure, carrying the status code and error payload.

    An ``OSError``, as urllib's ``HTTPError`` is: a caller that handles a
    refused connection handles an error answer with the same clause.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to one campaign service instance.

    Args:
        base_url: e.g. ``http://127.0.0.1:8765`` (trailing slash tolerated).
        timeout: per-request socket timeout in seconds; SSE reads use it
            per chunk, so keep it above the server's keep-alive interval.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    # -- plumbing ----------------------------------------------------------- #
    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
        data = None if body is None else \
            json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise ServiceError(error.code, self._error_message(error)) \
                from None

    @staticmethod
    def _error_message(error: urllib.error.HTTPError) -> str:
        try:
            return json.loads(error.read().decode("utf-8"))["error"]
        except Exception:  # noqa: BLE001 - best-effort error body decode
            return error.reason or "request failed"

    # -- API ---------------------------------------------------------------- #
    def health(self) -> Dict[str, object]:
        """``GET /v1/health``."""
        return self._request("GET", "/v1/health")

    def wait_ready(self, timeout: float = 10.0) -> Dict[str, object]:
        """Poll ``/v1/health`` every :data:`POLL_INTERVAL_S` until the
        service answers (startup helper).

        Raises:
            TimeoutError: if the service does not come up in time.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except OSError:
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"service at {self.base_url} not ready after "
                        f"{timeout:.1f} s") from None
                time.sleep(POLL_INTERVAL_S)

    def submit(self, spec: Optional[Dict[str, object]] = None,
               preset: Optional[str] = None,
               **options: object) -> Dict[str, object]:
        """``POST /v1/campaigns``: submit a spec dict or a preset name.

        Args:
            spec: a ``CampaignSpec.to_dict()`` payload.
            preset: a named campaign preset (exactly one of the two).
            **options: executor options (``executor``, ``max_workers``,
                ``cache_dir``).

        Returns:
            The submission document (``campaign_id``, ``state``,
            ``created``, ``started``, counts, ``events_url``).
        """
        body: Dict[str, object] = {key: value for key, value in options.items()
                                   if value is not None}
        if spec is not None:
            body["spec"] = spec
        if preset is not None:
            body["preset"] = preset
        return self._request("POST", "/v1/campaigns", body)

    def list_campaigns(self) -> List[Dict[str, object]]:
        """``GET /v1/campaigns``: summary documents of every campaign."""
        return self._request("GET", "/v1/campaigns")["campaigns"]

    def status(self, campaign_id: str) -> Dict[str, object]:
        """``GET /v1/campaigns/{id}``: full status incl. per-run records."""
        return self._request("GET", f"/v1/campaigns/{campaign_id}")

    def report(self, campaign_id: str) -> Dict[str, object]:
        """``GET /v1/campaigns/{id}/report``: the aggregate campaign report."""
        return self._request("GET", f"/v1/campaigns/{campaign_id}/report")

    def cancel(self, campaign_id: str) -> Dict[str, object]:
        """``DELETE /v1/campaigns/{id}``: request cooperative cancellation."""
        return self._request("DELETE", f"/v1/campaigns/{campaign_id}")

    # -- streaming ---------------------------------------------------------- #
    def events(self, campaign_id: str) -> Iterator[SSEEvent]:
        """Open the SSE stream and yield parsed events until it closes; each
        read waits up to the client timeout.

        Args:
            campaign_id: which campaign to watch.

        Yields:
            :class:`repro.service.sse.SSEEvent` frames — ``snapshot``
            replays, live ``run`` events, possible ``dropped`` notices and
            the terminal ``done``.

        Raises:
            ServiceError: if the subscription request itself fails (e.g.
                an unknown campaign id).
        """
        request = urllib.request.Request(
            f"{self.base_url}/v1/campaigns/{campaign_id}/events",
            headers={"Accept": "text/event-stream"})
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            raise ServiceError(error.code, self._error_message(error)) \
                from None
        parser = SSEParser()
        try:
            while True:
                try:
                    line = response.readline()
                except (socket.timeout, TimeoutError):
                    return
                if not line:
                    return
                for event in parser.feed(line.decode("utf-8")):
                    yield event
        finally:
            response.close()

    def watch(self, campaign_id: str) -> Iterator[SSEEvent]:
        """Like :meth:`events`, but stop after the terminal ``done`` frame."""
        for event in self.events(campaign_id):
            yield event
            if event.event == EVENT_DONE:
                return
